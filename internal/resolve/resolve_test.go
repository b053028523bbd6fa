package resolve

import (
	"fmt"
	"math/rand"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/engine"
	"qres/internal/oracle"
	"qres/internal/table"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

// allConfigs enumerates a representative set of configurations covering
// every strategy, learning mode and utility.
func allConfigs(seed int64) []Config {
	small := 20 // small forests keep tests fast
	return []Config{
		{Baseline: BaselineRandom, Seed: seed},
		{Baseline: BaselineGreedy, Seed: seed},
		{Baseline: BaselineLALOnly, Learning: LearnOnline, Trees: small, Seed: seed},
		{Utility: QValue{}, Learning: LearnEP, Seed: seed},
		{Utility: QValue{}, Learning: LearnOffline, Trees: small, Seed: seed},
		{Utility: QValue{}, Learning: LearnOnline, Trees: small, Seed: seed},
		{Utility: RO{}, Learning: LearnEP, Seed: seed},
		{Utility: RO{}, Learning: LearnOnline, Trees: small, Seed: seed},
		{Utility: General{}, Learning: LearnEP, Seed: seed},
		{Utility: General{}, Learning: LearnOffline, Trees: small, Seed: seed},
		{Utility: General{}, Learning: LearnOnline, Trees: small, Seed: seed},
		{Utility: General{}, Learning: LearnOnline, Model: ModelNB, Trees: small, Seed: seed},
	}
}

// groundTruthAnswer computes the expected correct rows directly from
// provenance under the ground-truth valuation.
func groundTruthAnswer(res *engine.Result, val *boolexpr.Valuation) map[int]bool {
	out := make(map[int]bool)
	for i, row := range res.Rows {
		out[i] = row.Prov.Eval(val)
	}
	return out
}

// The headline correctness invariant (paper: "our algorithms are correct
// by design"): every configuration, on every ground truth, resolves the
// exact ground-truth answer set.
func TestSessionResolvesExactAnswer(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	for gtSeed := int64(0); gtSeed < 4; gtSeed++ {
		gt := uncertain.GenerateFixed(udb, 0.5, 100+gtSeed)
		want := groundTruthAnswer(res, gt.Val)
		orc := oracle.NewGroundTruth(gt.Val)
		for _, cfg := range allConfigs(7) {
			name := fmt.Sprintf("%s/gt%d", cfg.Name(), gtSeed)
			t.Run(name, func(t *testing.T) {
				sess, err := NewSession(udb, res, orc, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := sess.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Answers) != len(res.Rows) {
					t.Fatalf("got %d answers, want %d", len(out.Answers), len(res.Rows))
				}
				for _, a := range out.Answers {
					if a.Correct != want[a.Row] {
						t.Errorf("row %d: resolved %t, ground truth %t", a.Row, a.Correct, want[a.Row])
					}
				}
				// Cross-check against a full possible-world evaluation.
				world := udb.PossibleWorld(gt.Val)
				truth, err := engine.RunWorld(world, testdb.PaperQuery())
				if err != nil {
					t.Fatal(err)
				}
				correct := make(map[string]bool)
				for _, r := range out.CorrectRows() {
					correct[res.Rows[r].Tuple.Key()] = true
				}
				if len(correct) != len(truth) {
					t.Fatalf("resolved %d correct rows, world has %d", len(correct), len(truth))
				}
				for key := range truth {
					if !correct[key] {
						t.Error("world answer missing from resolved set")
					}
				}
			})
		}
	}
}

// Probe-budget invariants: at most one probe per unique provenance
// variable, no duplicates, and only variables from the provenance.
func TestProbeBudgetInvariants(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	inProv := make(map[boolexpr.Var]bool)
	for _, v := range res.UniqueVars() {
		inProv[v] = true
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 5)
	for _, cfg := range allConfigs(11) {
		rec := oracle.NewRecorder(oracle.NewGroundTruth(gt.Val))
		sess, err := NewSession(udb, res, rec, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		probes := rec.Probes()
		if len(probes) != out.Probes {
			t.Errorf("%s: recorder %d vs outcome %d", cfg.Name(), len(probes), out.Probes)
		}
		if len(probes) > len(inProv) {
			t.Errorf("%s: %d probes exceeds %d unique vars", cfg.Name(), len(probes), len(inProv))
		}
		seen := make(map[boolexpr.Var]bool)
		for _, v := range probes {
			if seen[v] {
				t.Errorf("%s: variable %d probed twice", cfg.Name(), v)
			}
			seen[v] = true
			if !inProv[v] {
				t.Errorf("%s: probed variable %d outside provenance", cfg.Name(), v)
			}
		}
	}
}

// Known probe answers must be substituted before any oracle call (Step 3),
// and a repository that decides everything requires zero probes.
func TestKnownProbesReused(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 9)

	// Full repository: every provenance variable already answered.
	repo := NewRepository()
	for _, v := range res.UniqueVars() {
		ans, _ := gt.Val.Get(v)
		repo.AddVar(v, udb.MetaFor(v), ans)
	}
	sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo, Config{Utility: General{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Probes != 0 {
		t.Fatalf("fully-known repository still issued %d probes", out.Probes)
	}
	if sess.Stats().KnownReused == 0 {
		t.Fatal("KnownReused not counted")
	}
	want := groundTruthAnswer(res, gt.Val)
	for _, a := range out.Answers {
		if a.Correct != want[a.Row] {
			t.Errorf("row %d wrong despite full repository", a.Row)
		}
	}

	// Partial repository must reduce (or at least not increase) probes.
	base, _ := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, Config{Utility: General{}, Seed: 1})
	baseOut, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	partial := NewRepository()
	vs := res.UniqueVars()
	for _, v := range vs[:len(vs)/2] {
		ans, _ := gt.Val.Get(v)
		partial.AddVar(v, udb.MetaFor(v), ans)
	}
	half, _ := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), partial, Config{Utility: General{}, Seed: 1})
	halfOut, err := half.Run()
	if err != nil {
		t.Fatal(err)
	}
	if halfOut.Probes > baseOut.Probes {
		t.Errorf("partial repository increased probes: %d > %d", halfOut.Probes, baseOut.Probes)
	}
}

// Example 5.2 of the paper: with a0 probed True and π̃ = 0.1 for
// {a1, r1, e1, r4, e4} and 0.9 otherwise, Formula (3) gives a1 the maximal
// utility 2.7, and Formula (2) gives {e0, e2, e3, r0, r2} the shared
// maximal utility.
func TestUtilityPaperExample52(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	v := func(rel string, i int) boolexpr.Var {
		vv, _ := udb.VarFor(rel, i)
		return vv
	}
	a0 := v("Acquisitions", 0)
	low := map[boolexpr.Var]bool{
		v("Acquisitions", 1): true, v("Roles", 1): true, v("Education", 1): true,
		v("Roles", 4): true, v("Education", 4): true,
	}
	prob := func(x boolexpr.Var) float64 {
		if low[x] {
			return 0.1
		}
		return 0.9
	}

	known := boolexpr.NewValuation()
	known.Set(a0, true)
	parts, partOf, _, err := prepareExpressions(res.Provenance(), known, false, false, false, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkset(parts, partOf, nil)
	candidates := w.candidates()

	// Formula (3) (General's even rounds): a1 maximal with utility 2.7.
	gScores := fullScores(General{}, w, prob, candidates, 0)
	a1 := v("Acquisitions", 1)
	if got := gScores[a1]; got < 2.699 || got > 2.701 {
		t.Errorf("General(a1) = %f, want 2.7", got)
	}
	for x, s := range gScores {
		if x != a1 && s >= gScores[a1] {
			t.Errorf("General: %d scored %f >= a1's %f", x, s, gScores[a1])
		}
	}

	// Formula (2) (RO): the five variables of the weight-0.405 terms tie
	// at the top.
	roScoresMap := fullScores(RO{}, w, prob, candidates, 0)
	top := map[boolexpr.Var]bool{
		v("Education", 0): true, v("Education", 2): true, v("Education", 3): true,
		v("Roles", 0): true, v("Roles", 2): true,
	}
	var topScore float64
	for x := range top {
		topScore = roScoresMap[x]
		break
	}
	for x := range top {
		if diff := roScoresMap[x] - topScore; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("RO: expected tie among top variables, got %f vs %f", roScoresMap[x], topScore)
		}
	}
	for x, s := range roScoresMap {
		if !top[x] && s >= topScore-1e-9 {
			t.Errorf("RO: %d scored %f >= top %f", x, s, topScore)
		}
	}

	// General's odd rounds are Formula (2).
	gOdd := fullScores(General{}, w, prob, candidates, 1)
	for x := range gOdd {
		if gOdd[x] != roScoresMap[x] {
			t.Errorf("General odd round must equal RO scores")
			break
		}
	}
}

// Q-Value must be maximal for a probe guaranteed to decide an expression.
func TestQValueDecidingProbeWins(t *testing.T) {
	// φ1 = x0 (deciding either way), φ2 = (x1∧x2) ∨ (x1∧x3): x1 decides
	// only when False.
	exprs := []boolexpr.Expr{
		boolexpr.Lit(0),
		boolexpr.NewExpr(boolexpr.NewTerm(1, 2), boolexpr.NewTerm(1, 3)),
	}
	_, _, cnfs, err := prepareExpressions(exprs, boolexpr.NewValuation(), false, false, true, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkset(exprs, []int{0, 1}, cnfs)
	prob := func(boolexpr.Var) float64 { return 0.5 }
	scores := fullScores(QValue{}, w, prob, w.candidates(), 0)
	// x0: nt*nc = 1; both hypothetical products are 0 → score 1.
	if scores[0] != 1 {
		t.Errorf("QValue(x0) = %f, want 1", scores[0])
	}
	// x1 in φ2: nt=2, nc: CNF = x1 ∧ (x2∨x3) → nc=2, base 4.
	// x1=True: ntT=2, ncT=1 → product 2. x1=False: decided → 0.
	// score = 4 - 0.5*2 - 0.5*0 = 3.
	if scores[1] != 3 {
		t.Errorf("QValue(x1) = %f, want 3", scores[1])
	}
	// x2: base 4; True: nt=2, clauses without x2 = 1 → 2; False: nt=1,
	// nc=2 → 2. score = 4 - 0.5*2 - 0.5*2 = 2.
	if scores[2] != 2 {
		t.Errorf("QValue(x2) = %f, want 2", scores[2])
	}
}

// Combination functions must satisfy the Section 6 desiderata.
func TestCombineDesiderata(t *testing.T) {
	combines := []Combine{
		CombineProduct(),
		CombineLinear(1, 2),
		CombineUtilityOnly(),
		CombineThreshold(0.05, 100),
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range combines {
		t.Run(c.Name(), func(t *testing.T) {
			for trial := 0; trial < 2000; trial++ {
				u1, u2 := rng.Float64()*10, rng.Float64()*10
				v1, v2 := rng.Float64(), rng.Float64()
				// Monotonicity: u1>=u2 and v1>=v2 ⇒ f(u1,v1) >= f(u2,v2).
				if u1 >= u2 && v1 >= v2 && c.Eval(u1, v1) < c.Eval(u2, v2) {
					t.Fatalf("monotonicity violated: f(%f,%f)=%f < f(%f,%f)=%f",
						u1, v1, c.Eval(u1, v1), u2, v2, c.Eval(u2, v2))
				}
				// ε-CtU with ε = 0.01: once uncertainties drop below ε,
				// ranking follows utility for any utility gap above the ε
				// scale (for u·(v+1) the gap must beat the residual u·ε
				// perturbation — the function converges to utility as
				// ε → 0 rather than at a fixed ε).
				e1, e2 := v1*0.01, v2*0.01
				if u1 > u2*(1+0.03)+1e-9 && c.Eval(u1, e1) <= c.Eval(u2, e2) {
					t.Fatalf("ε-CtU violated: f(%f,%f)=%f <= f(%f,%f)=%f",
						u1, e1, c.Eval(u1, e1), u2, e2, c.Eval(u2, e2))
				}
			}
		})
	}
	// Zero-value Combine behaves as utility-only.
	var zero Combine
	if zero.Eval(3, 9) != 3 {
		t.Error("zero Combine must return u")
	}
}

func TestWorksetLifecycle(t *testing.T) {
	// Two expressions sharing x1.
	exprs := []boolexpr.Expr{
		boolexpr.NewExpr(boolexpr.NewTerm(0, 1)),
		boolexpr.NewExpr(boolexpr.NewTerm(1), boolexpr.NewTerm(2)),
	}
	w := newWorkset(exprs, []int{0, 1}, nil)
	if w.done() {
		t.Fatal("fresh workset must not be done")
	}
	if got := len(w.candidates()); got != 3 {
		t.Fatalf("candidates = %d, want 3", got)
	}

	// x1=True decides expression 1 (term {x1} satisfied) and shrinks 0.
	delta := w.applyProbe(1, true)
	if len(delta.decided) != 1 || delta.decided[0] != 1 {
		t.Fatalf("decided = %v, want [1]", delta.decided)
	}
	if !w.exprs[1].IsTrue() {
		t.Fatal("expression 1 should be True")
	}
	// x2 is now irrelevant (only occurred in the decided expression).
	cands := w.candidates()
	if len(cands) != 1 || cands[0] != 0 {
		t.Fatalf("candidates = %v, want [0]", cands)
	}

	// x0=False decides expression 0.
	w.applyProbe(0, false)
	if !w.done() {
		t.Fatal("workset should be done")
	}
	states := w.rowStatus(2)
	if states[0] != rowFalse || states[1] != rowTrue {
		t.Fatalf("rowStatus = %v", states)
	}
}

func TestWorksetSplitAggregation(t *testing.T) {
	// One row split into two parts; the row is True if either part is.
	parts := []boolexpr.Expr{
		boolexpr.NewExpr(boolexpr.NewTerm(0)),
		boolexpr.NewExpr(boolexpr.NewTerm(1)),
	}
	w := newWorkset(parts, []int{0, 0}, nil)
	w.applyProbe(0, false)
	if st := w.rowStatus(1)[0]; st != rowUndecided {
		t.Fatalf("one False part must leave the row undecided, got %v", st)
	}
	w.applyProbe(1, true)
	if st := w.rowStatus(1)[0]; st != rowTrue {
		t.Fatalf("True part must make the row True, got %v", st)
	}
}

func TestPrepareExpressionsSplitting(t *testing.T) {
	// 20 disjoint 3-term conjunctions: CNF has 3^20 clauses, far over any
	// bound, so the expression must be split.
	terms := make([]boolexpr.Term, 20)
	for i := range terms {
		terms[i] = boolexpr.NewTerm(boolexpr.Var(3*i), boolexpr.Var(3*i+1), boolexpr.Var(3*i+2))
	}
	big := boolexpr.NewExpr(terms...)
	rng := rand.New(rand.NewSource(4))

	parts, partOf, cnfs, err := prepareExpressions([]boolexpr.Expr{big}, boolexpr.NewValuation(), true, false, true, 5, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 4 {
		t.Fatalf("got %d parts, want >= 4 (20 terms / 5)", len(parts))
	}
	total := 0
	for i, p := range parts {
		total += p.NumTerms()
		// With CNF required, every part must fit the clause bound (a
		// 5-term part of 3-var terms has 3^5 = 243 clauses > 100, so
		// parts are recursively halved), and the CNF handed over must be
		// that part's.
		cnf, ok := p.ToCNF(100)
		if !ok {
			t.Fatalf("part %v exceeds the CNF bound", p)
		}
		if !sameClauses(cnfs[i], cnf) {
			t.Fatalf("part %d: handed-over CNF %v, want %v", i, cnfs[i].Clauses(), cnf.Clauses())
		}
	}
	if total != 20 {
		t.Fatalf("terms lost or duplicated across parts: %d", total)
	}
	for _, r := range partOf {
		if r != 0 {
			t.Fatal("all parts must map to row 0")
		}
	}
	// Without splitting the preparation must fail when CNF is needed.
	if _, _, _, err := prepareExpressions([]boolexpr.Expr{big}, boolexpr.NewValuation(), false, false, true, 5, 100, rng); err == nil {
		t.Fatal("expected CNF bound error")
	}
	// SplitAll splits by term count even when CNF is not needed.
	partsAll, _, _, _ := prepareExpressions([]boolexpr.Expr{big}, boolexpr.NewValuation(), true, true, false, 5, 0, rng)
	if len(partsAll) != 4 {
		t.Fatalf("SplitAll: got %d parts, want 4", len(partsAll))
	}
	// DisableSplitting keeps the expression whole.
	whole, _, _, _ := prepareExpressions([]boolexpr.Expr{big}, boolexpr.NewValuation(), false, false, false, 5, 100, rng)
	if len(whole) != 1 {
		t.Fatal("splitting disabled but expression was split")
	}
}

func TestSessionConfigErrors(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 1)
	if _, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, Config{}); err == nil {
		t.Error("config without utility or baseline must fail")
	}
}

type failingOracle struct{}

func (failingOracle) Probe(boolexpr.Var) (bool, error) {
	return false, fmt.Errorf("oracle unavailable")
}

func TestOracleErrorPropagates(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(udb, res, failingOracle{}, nil, Config{Utility: General{}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err == nil {
		t.Fatal("oracle error must propagate")
	}
	// The session stays failed.
	if _, done, err := sess.Step(); !done || err == nil {
		t.Fatal("failed session must report its error from Step")
	}
}

func TestConfigNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Baseline: BaselineRandom}, "Random"},
		{Config{Baseline: BaselineGreedy}, "Greedy"},
		{Config{Baseline: BaselineLALOnly}, "LAL only"},
		{Config{Utility: QValue{}, Learning: LearnEP}, "Q-Value+EP"},
		{Config{Utility: RO{}, Learning: LearnOffline}, "RO+Offline"},
		{Config{Utility: General{}, Learning: LearnOnline}, "General+LAL"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 77)
	want := groundTruthAnswer(res, gt.Val)
	cfg := Config{Utility: General{}, Learning: LearnEP, Seed: 5}

	out, err := ResolveParallel(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Answers {
		if a.Correct != want[a.Row] {
			t.Errorf("parallel row %d: got %t, want %t", a.Row, a.Correct, want[a.Row])
		}
	}
	if out.Components < 1 {
		t.Error("expected at least one component")
	}
	if out.CriticalPathProbes > out.Probes {
		t.Error("critical path cannot exceed total probes")
	}
	if out.Probes == 0 && !allDecidedUpfront(res) {
		t.Error("parallel resolution issued no probes")
	}
}

func allDecidedUpfront(res *engine.Result) bool {
	for _, r := range res.Rows {
		if !r.Prov.Decided() {
			return false
		}
	}
	return true
}

func TestLearnerModes(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	repo := NewRepository()
	rng := rand.New(rand.NewSource(8))
	// Seed with >= MinTrain labeled examples whose answers follow the
	// source attribute.
	for i := 0; i < 40; i++ {
		src := "good.example"
		ans := true
		if i%2 == 0 {
			src = "bad.example"
			ans = false
		}
		repo.Add(map[string]string{"source": src, "rel_name": "x"}, ans)
	}
	_ = rng

	ep := NewLearner(udb, repo.Clone(), LearnerConfig{Mode: LearnEP})
	v, _ := udb.VarFor("Acquisitions", 0)
	if ep.Prob(v) != 0.5 {
		t.Error("EP learner must return 0.5")
	}
	if ep.Retrains() != 0 {
		t.Error("EP learner must never train")
	}

	off := NewLearner(udb, repo.Clone(), LearnerConfig{Mode: LearnOffline, Trees: 20, Seed: 1})
	if off.Retrains() != 1 {
		t.Errorf("offline learner retrains = %d, want 1", off.Retrains())
	}
	off.Observe(v, true)
	if off.Retrains() != 1 {
		t.Error("offline learner must not retrain on Observe")
	}

	on := NewLearner(udb, repo.Clone(), LearnerConfig{Mode: LearnOnline, Trees: 20, Seed: 1})
	r0 := on.Retrains()
	on.Observe(v, true)
	if on.Retrains() != r0+1 {
		t.Error("online learner must retrain on Observe")
	}

	// MinTrain gate: an online learner over a tiny repository returns 0.5
	// until 20 records accumulate.
	tiny := NewLearner(udb, NewRepository(), LearnerConfig{Mode: LearnOnline, Trees: 10, Seed: 1})
	if tiny.Trained() {
		t.Error("learner with empty repository must be untrained")
	}
	if tiny.Prob(v) != 0.5 {
		t.Error("untrained learner must return 0.5")
	}
	if tiny.Uncertainty(v) != 0 {
		t.Error("untrained learner must score 0 uncertainty")
	}
}

func TestLearnerProbsTrackMetadata(t *testing.T) {
	// Build a database whose tuples carry a source attribute, with a
	// repository that labels one source reliable and the other not; the
	// trained learner must separate the two.
	db := table.NewDatabase()
	rel := table.NewRelation("facts", table.NewSchema(table.Column{Name: "v", Kind: table.KindInt}))
	for i := 0; i < 10; i++ {
		src := "good.example"
		if i%2 == 1 {
			src = "bad.example"
		}
		rel.MustAppend(table.Tuple{table.Int(int64(i))}, table.Metadata{"source": src})
	}
	db.MustAdd(rel)
	udb := uncertain.New(db)

	repo := NewRepository()
	for i := 0; i < 60; i++ {
		src, ans := "good.example", true
		if i%2 == 1 {
			src, ans = "bad.example", false
		}
		repo.Add(map[string]string{"source": src, "rel_name": "facts"}, ans)
	}
	l := NewLearner(udb, repo, LearnerConfig{Mode: LearnOffline, Trees: 30, Seed: 2})
	vGood, _ := udb.VarFor("facts", 0)
	vBad, _ := udb.VarFor("facts", 1)
	if pg := l.Prob(vGood); pg < 0.8 {
		t.Errorf("P(good source) = %f, want high", pg)
	}
	if pb := l.Prob(vBad); pb > 0.2 {
		t.Errorf("P(bad source) = %f, want low", pb)
	}
	imp := l.FeatureImportances()
	if imp["source"] < imp["rel_name"] {
		t.Errorf("source importance %f should dominate rel_name %f", imp["source"], imp["rel_name"])
	}
}

func TestRepository(t *testing.T) {
	r := NewRepository()
	r.Add(map[string]string{"a": "1"}, true)
	r.AddVar(7, map[string]string{"a": "2"}, false)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if ans, ok := r.Answer(7); !ok || ans {
		t.Error("Answer(7) wrong")
	}
	if _, ok := r.Answer(8); ok {
		t.Error("Answer(8) should be unknown")
	}
	clone := r.Clone()
	clone.AddVar(9, nil, true)
	if _, ok := r.Answer(9); ok {
		t.Error("Clone leaked into original")
	}
	if len(r.Metas()) != 2 {
		t.Error("Metas length wrong")
	}
}

// Determinism: identical configuration and seed yield identical probe
// sequences.
func TestSessionDeterministic(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 3)
	run := func() []boolexpr.Var {
		rec := oracle.NewRecorder(oracle.NewGroundTruth(gt.Val))
		sess, err := NewSession(udb, res, rec, nil, Config{Utility: QValue{}, Learning: LearnEP, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.Probes()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("probe counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe sequence diverged at %d", i)
		}
	}
}

// The noisy-oracle extension: with a noise-free rate the wrapper is
// transparent; with rate 1 every answer flips, and the resolved answers
// follow the flipped valuation.
func TestNoisyOracle(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 13)

	clean := oracle.NewNoisy(oracle.NewGroundTruth(gt.Val), 0, 1)
	sess, _ := NewSession(udb, res, clean, nil, Config{Utility: General{}, Seed: 3})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := groundTruthAnswer(res, gt.Val)
	for _, a := range out.Answers {
		if a.Correct != want[a.Row] {
			t.Error("rate-0 noisy oracle changed answers")
			break
		}
	}
}
