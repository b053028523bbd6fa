package resolve

import (
	"fmt"
	"math/rand"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/engine"
	"qres/internal/oracle"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// syntheticWorkload builds an uncertain database of nvars tuples (with
// source metadata) and a fabricated query result whose provenance is
// random monotone DNF over those tuples' variables — a harsher stress for
// the resolution loop than real query provenance, since terms and
// expression overlaps are arbitrary.
func syntheticWorkload(t *testing.T, nvars, nexprs, maxTerms, maxTermSize int, seed int64) (*uncertain.DB, *engine.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	exprs := make([]boolexpr.Expr, 0, nexprs)
	for i := 0; i < nexprs; i++ {
		nt := 1 + rng.Intn(maxTerms)
		terms := make([]boolexpr.Term, 0, nt)
		for j := 0; j < nt; j++ {
			size := 1 + rng.Intn(maxTermSize)
			vars := make([]boolexpr.Var, 0, size)
			for k := 0; k < size; k++ {
				vars = append(vars, boolexpr.Var(rng.Intn(nvars)))
			}
			terms = append(terms, boolexpr.NewTerm(vars...))
		}
		exprs = append(exprs, boolexpr.NewExpr(terms...))
	}
	return exprWorkload(nvars, exprs...)
}

// exprWorkload builds an uncertain database of nvars tuples (with source
// metadata), whose variables are 0..nvars-1, and a fabricated query result
// with one row per expression, carrying it as provenance.
func exprWorkload(nvars int, exprs ...boolexpr.Expr) (*uncertain.DB, *engine.Result) {
	db := table.NewDatabase()
	rel := table.NewRelation("facts", table.NewSchema(table.Column{Name: "id", Kind: table.KindInt}))
	for i := 0; i < nvars; i++ {
		rel.MustAppend(table.Tuple{table.Int(int64(i))},
			table.Metadata{"source": fmt.Sprintf("src-%d", i%5)})
	}
	db.MustAdd(rel)
	udb := uncertain.New(db)

	res := &engine.Result{Columns: []engine.OutCol{{Name: "id", Kind: table.KindInt}}}
	for i, e := range exprs {
		res.Rows = append(res.Rows, engine.Row{
			Tuple: table.Tuple{table.Int(int64(i))},
			Prov:  e,
		})
	}
	return udb, res
}

// Every strategy must compute the exact ground-truth answer on random
// overlapping provenance, including with forced splitting (SplitAll) and
// tight CNF bounds — the end-to-end counterpart of the boolexpr
// simplification and splitting properties.
func TestSyntheticResolutionExactness(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		udb, res := syntheticWorkload(t, 40, 12, 6, 4, 1000+trial)
		gt := uncertain.GenerateFixed(udb, 0.5, 2000+trial)
		want := groundTruthAnswer(res, gt.Val)

		configs := []Config{
			{Baseline: BaselineRandom, Seed: trial},
			{Baseline: BaselineGreedy, Seed: trial},
			{Utility: QValue{}, Learning: LearnEP, Seed: trial, CNFClauseBound: 64},
			{Utility: RO{}, Learning: LearnEP, Seed: trial},
			{Utility: General{}, Learning: LearnEP, Seed: trial},
			{Utility: General{}, Learning: LearnEP, Seed: trial, SplitAll: true, SplitMaxTerms: 2},
			{Utility: QValue{}, Learning: LearnEP, Seed: trial, SplitAll: true, SplitMaxTerms: 3, CNFClauseBound: 128},
		}
		for _, cfg := range configs {
			sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, cfg.Name(), err)
			}
			out, err := sess.Run()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, cfg.Name(), err)
			}
			for _, a := range out.Answers {
				if a.Correct != want[a.Row] {
					t.Errorf("trial %d %s: row %d resolved %t, want %t",
						trial, cfg.Name(), a.Row, a.Correct, want[a.Row])
				}
			}
		}
	}
}

// Probing cost accounting: with a Costs map, Stats.Cost is the sum of the
// probed variables' costs, and cost-aware selection prefers cheap probes.
func TestCostAccountingAndAwareness(t *testing.T) {
	udb, res := syntheticWorkload(t, 30, 8, 5, 3, 77)
	gt := uncertain.GenerateFixed(udb, 0.5, 78)

	costs := make(map[boolexpr.Var]float64)
	for _, v := range res.UniqueVars() {
		if int(v)%2 == 0 {
			costs[v] = 10
		}
	}
	costOf := func(v boolexpr.Var) float64 {
		if c, ok := costs[v]; ok {
			return c
		}
		return 1
	}

	run := func(aware bool) (float64, []boolexpr.Var) {
		rec := oracle.NewRecorder(oracle.NewGroundTruth(gt.Val))
		sess, err := NewSession(udb, res, rec, nil, Config{
			Utility: General{}, Learning: LearnEP, Seed: 5,
			Costs: costs, CostAware: aware,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out.Stats.Cost, rec.Probes()
	}

	blindCost, blindProbes := run(false)
	awareCost, awareProbes := run(true)

	// Accounting invariant on both runs.
	check := func(cost float64, probes []boolexpr.Var) {
		var want float64
		for _, v := range probes {
			want += costOf(v)
		}
		if cost != want {
			t.Errorf("Stats.Cost = %f, recomputed %f", cost, want)
		}
	}
	check(blindCost, blindProbes)
	check(awareCost, awareProbes)

	// Cost-aware selection prefers cheap probes: the fraction of
	// expensive probes must not increase.
	expensive := func(probes []boolexpr.Var) float64 {
		if len(probes) == 0 {
			return 0
		}
		n := 0
		for _, v := range probes {
			if costOf(v) > 1 {
				n++
			}
		}
		return float64(n) / float64(len(probes))
	}
	if expensive(awareProbes) > expensive(blindProbes) {
		t.Errorf("cost-aware run used more expensive probes (%.2f) than blind (%.2f)",
			expensive(awareProbes), expensive(blindProbes))
	}
}

// Sharing a repository across sessions transfers knowledge: a second
// session over the same result with the first session's repository needs
// no probes at all.
func TestRepositoryAccumulationAcrossSessions(t *testing.T) {
	udb, res := syntheticWorkload(t, 25, 6, 4, 3, 55)
	gt := uncertain.GenerateFixed(udb, 0.5, 56)
	repo := NewRepository()

	first, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo, Config{Utility: General{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out1, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo, Config{Utility: General{}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := second.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out2.Probes != 0 {
		t.Errorf("second session probed %d times despite shared repository (first used %d)",
			out2.Probes, out1.Probes)
	}
	for i := range out1.Answers {
		if out1.Answers[i].Correct != out2.Answers[i].Correct {
			t.Error("sessions disagree")
		}
	}
}
