package resolve

import (
	"fmt"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/datagen"
	"qres/internal/engine"
	"qres/internal/oracle"
	"qres/internal/sqlparse"
	"qres/internal/uncertain"
)

// sameClauses reports whether two CNFs hold identical clauses in the same
// order.
func sameClauses(a, b boolexpr.CNF) bool {
	ac, bc := a.Clauses(), b.Clauses()
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !ac[i].Equal(bc[i]) {
			return false
		}
	}
	return true
}

// checkCNFsCurrent fails unless every undecided expression's stored CNF
// equals a fresh unbounded conversion of the expression.
func checkCNFsCurrent(t *testing.T, w *workset) {
	t.Helper()
	for i, e := range w.exprs {
		if e.Decided() {
			continue
		}
		want, _ := e.ToCNF(0)
		if !sameClauses(w.cnfs[i], want) {
			t.Fatalf("expression %d (%v): stored CNF %v, fresh conversion %v",
				i, e, w.cnfs[i].Clauses(), want.Clauses())
		}
	}
}

// prefixOverflowExpr is a DNF whose CNF fits a bound of 7 clauses, but
// after x1 = true re-sorting moves the shortened term forward and a prefix
// of the new term order passes 7 clauses before the later terms absorb
// them. Re-deriving its CNF after that answer overflows; conditioning the
// stored CNF cannot.
func prefixOverflowExpr() boolexpr.Expr {
	term := boolexpr.NewTerm
	return boolexpr.NewExpr(
		term(0, 6), term(3, 4), term(5, 6), term(0, 2, 3), term(1, 2, 5))
}

func TestApplyProbeConditionsPastPrefixBound(t *testing.T) {
	e := prefixOverflowExpr()
	parts, partOf, cnfs, err := prepareExpressions([]boolexpr.Expr{e}, boolexpr.NewValuation(), true, false, true, 8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("expression fits the bound but was split into %d parts", len(parts))
	}
	w := newWorkset(parts, partOf, cnfs)
	w.applyProbe(1, true)
	if _, ok := w.exprs[0].ToCNF(7); ok {
		t.Fatal("re-deriving the conditioned CNF no longer overflows; the regression is not exercised")
	}
	if got := w.cnfs[0].NumClauses(); got != 5 {
		t.Fatalf("conditioned CNF has %d clauses, want 5", got)
	}
	checkCNFsCurrent(t, w)
}

// A repository answer recorded by a concurrent session reaches this
// session through applyKnown; it must not end the session even when
// re-deriving the conditioned CNF would overflow the clause bound.
func TestSessionKnownAnswerPastPrefixBound(t *testing.T) {
	udb, res := exprWorkload(7, prefixOverflowExpr())
	gt := uncertain.GenerateFixed(udb, 0.5, 3)
	gt.Val.Set(1, true)
	shared := NewRepository()
	sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), shared,
		Config{Utility: QValue{}, Learning: LearnEP, CNFClauseBound: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shared.AddVar(1, udb.MetaFor(1), true)
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Stats().KnownReused != 1 {
		t.Fatalf("known answers reused = %d, want 1", sess.Stats().KnownReused)
	}
	if want := res.Rows[0].Prov.Eval(gt.Val); out.Answers[0].Correct != want {
		t.Fatalf("row resolved to %v, ground truth %v", out.Answers[0].Correct, want)
	}
}

// Every stored CNF must equal a fresh conversion after every answer, on
// real query provenance and on synthetic provenance split every way.
func TestWorksetCNFsStayCurrent(t *testing.T) {
	nell := datagen.NELL(datagen.NELLConfig{Athletes: 300, Seed: 5})
	plan, err := sqlparse.ParseAndCompile(datagen.NELLQueries()["MS1"], nell.Data())
	if err != nil {
		t.Fatal(err)
	}
	ms1, err := engine.Run(nell, plan)
	if err != nil {
		t.Fatal(err)
	}
	type workload struct {
		name string
		udb  *uncertain.DB
		res  *engine.Result
		cfg  Config
	}
	cases := []workload{{"nell-ms1", nell, ms1, Config{Utility: QValue{}, Learning: LearnEP, Seed: 2}}}
	for seed := int64(1000); seed < 1004; seed++ {
		udb, res := syntheticWorkload(t, 40, 24, 6, 4, seed)
		name := fmt.Sprintf("synthetic-%d/", seed)
		cases = append(cases,
			workload{name + "split-all", udb, res, Config{Utility: QValue{}, Learning: LearnEP, Seed: seed, SplitAll: true, SplitMaxTerms: 3, CNFClauseBound: 128}},
			workload{name + "bound-8", udb, res, Config{Utility: QValue{}, Learning: LearnEP, Seed: seed, CNFClauseBound: 8}},
			workload{name + "bound-4", udb, res, Config{Utility: QValue{}, Learning: LearnEP, Seed: seed, SplitMaxTerms: 2, CNFClauseBound: 4}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gt := uncertain.GenerateFixed(tc.udb, 0.5, 7)
			sess, err := NewSession(tc.udb, tc.res, oracle.NewGroundTruth(gt.Val), nil, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkCNFsCurrent(t, sess.work)
			steps := 0
			for !sess.Done() {
				if _, _, err := sess.Step(); err != nil {
					t.Fatal(err)
				}
				checkCNFsCurrent(t, sess.work)
				steps++
			}
			if steps == 0 {
				t.Fatal("session decided everything up front; nothing was conditioned")
			}
		})
	}
}
