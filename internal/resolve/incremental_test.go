package resolve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/oracle"
	"qres/internal/uncertain"
)

// The inverted index and the probe delta drive every incremental cache, so
// their behaviour is pinned case by case: which expressions a probe
// touches, which variables become dirty, and which leave the candidate set.
func TestWorksetInvertedIndex(t *testing.T) {
	// Shorthands: expression i is a DNF over small variable numbers.
	expr := func(terms ...boolexpr.Term) boolexpr.Expr { return boolexpr.NewExpr(terms...) }
	term := func(vs ...boolexpr.Var) boolexpr.Term { return boolexpr.NewTerm(vs...) }

	cases := []struct {
		name   string
		exprs  []boolexpr.Expr
		probe  boolexpr.Var
		answer bool

		wantTouched  []int
		wantDecided  []int
		wantAffected []boolexpr.Var
		wantDropped  []boolexpr.Var
		wantCands    []boolexpr.Var
	}{
		{
			// A fresh variable joins only its own expressions: probing it
			// must leave the disjoint expression untouched.
			name:         "disjoint expression untouched",
			exprs:        []boolexpr.Expr{expr(term(0, 1)), expr(term(2, 3))},
			probe:        0,
			answer:       true,
			wantTouched:  []int{0},
			wantDecided:  nil,
			wantAffected: []boolexpr.Var{1},
			wantDropped:  nil,
			wantCands:    []boolexpr.Var{1, 2, 3},
		},
		{
			// answered-true: x0=True satisfies a term of both expressions,
			// deciding them and orphaning the other term's variable.
			name:         "answered true decides and orphans",
			exprs:        []boolexpr.Expr{expr(term(0)), expr(term(0), term(1))},
			probe:        0,
			answer:       true,
			wantTouched:  []int{0, 1},
			wantDecided:  []int{0, 1},
			wantAffected: []boolexpr.Var{1},
			wantDropped:  []boolexpr.Var{1},
			wantCands:    nil,
		},
		{
			// answered-false: x0=False kills its term but the union survives
			// through the other term.
			name:         "answered false shrinks union",
			exprs:        []boolexpr.Expr{expr(term(0, 1), term(2))},
			probe:        0,
			answer:       false,
			wantTouched:  []int{0},
			wantDecided:  nil,
			wantAffected: []boolexpr.Var{1, 2},
			wantDropped:  []boolexpr.Var{1},
			wantCands:    []boolexpr.Var{2},
		},
		{
			// A variable shared across unions touches every expression it
			// occurs in; co-variables of all of them become affected.
			name: "variable shared across unions",
			exprs: []boolexpr.Expr{
				expr(term(0, 1), term(4)),
				expr(term(0, 2)),
				expr(term(3)),
			},
			probe:        0,
			answer:       false,
			wantTouched:  []int{0, 1},
			wantDecided:  []int{1},
			wantAffected: []boolexpr.Var{1, 2, 4},
			wantDropped:  []boolexpr.Var{1, 2},
			wantCands:    []boolexpr.Var{3, 4},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			partOf := make([]int, len(tc.exprs))
			for i := range partOf {
				partOf[i] = i
			}
			w := newWorkset(tc.exprs, partOf, nil)
			d := w.applyProbe(tc.probe, tc.answer)
			check := func(field string, got, want any) {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s = %v, want %v", field, got, want)
				}
			}
			check("touched", d.touched, tc.wantTouched)
			check("decided", d.decided, tc.wantDecided)
			check("affected", d.affected, tc.wantAffected)
			check("dropped", d.dropped, tc.wantDropped)
			got := append([]boolexpr.Var{}, w.cands...)
			want := append([]boolexpr.Var{}, tc.wantCands...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("candidates = %v, want %v", got, want)
			}
			// The live occ counts must agree with a from-scratch recount.
			fresh := make(map[boolexpr.Var]int)
			for i, e := range w.exprs {
				if e.Decided() {
					continue
				}
				for v := range w.exprVars[i] {
					fresh[v]++
				}
			}
			if !reflect.DeepEqual(w.occ, fresh) {
				t.Errorf("occ = %v, want %v", w.occ, fresh)
			}
		})
	}
}

// The incremental hot path must be invisible: for every utility and
// learning mode, the probe sequence and the resolved answer set must be
// bit-identical to the full per-round recompute, for any shard and rescore
// worker counts. Synthetic workloads with heavy variable sharing exercise
// the caches far harder than real query provenance.
func TestIncrementalEquivalenceSynthetic(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		udb, res := syntheticWorkload(t, 50, 14, 6, 4, 4000+trial)
		gt := uncertain.GenerateFixed(udb, 0.5, 4100+trial)

		known := make(map[boolexpr.Var]float64)
		for _, v := range res.UniqueVars() {
			known[v] = 0.1 + 0.8*float64(int(v)%7)/6
		}

		// A pre-seeded repository lets Offline and Online modes actually
		// train (MinTrain reached) so their classifier probabilities flow
		// through the caches too.
		seedRepo := NewRepository()
		n := 0
		for _, v := range res.UniqueVars() {
			if n >= 25 {
				break
			}
			if int(v)%3 == 0 {
				ans, _ := gt.Val.Get(v)
				seedRepo.AddVar(v, udb.MetaFor(v), ans)
				n++
			}
		}

		base := []Config{
			{Utility: QValue{}, Learning: LearnEP, CNFClauseBound: 256},
			{Utility: RO{}, Learning: LearnEP},
			{Utility: General{}, Learning: LearnEP},
			{Utility: General{}, KnownProbs: known},
			{Utility: RO{}, KnownProbs: known},
			{Utility: General{}, Learning: LearnOffline, Trees: 10},
			{Utility: General{}, Learning: LearnOnline, Trees: 5},
		}
		for ci, cfg := range base {
			cfg.Seed = trial
			name := fmt.Sprintf("trial%d/%s", trial, cfg.Name())
			prod := checkSelectionPaths(t, name, func(hook func(*Session), par Parallelism) (*Session, []boolexpr.Var) {
				c := cfg
				c.Parallel = par
				rec := oracle.NewRecorder(oracle.NewGroundTruth(gt.Val))
				sess, err := NewSession(udb, res, rec, seedRepo.Clone(), c)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if hook != nil {
					hook(sess)
				}
				if _, err := sess.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return sess, rec.Probes()
			})
			// Outside online mode the caches must actually be doing work:
			// at least one score has to be served from cache (the synthetic
			// workloads always have non-adjacent variables).
			if cfg.Learning != LearnOnline && ci < 5 && prod.Stats().ScoreCacheHits == 0 {
				t.Errorf("%s: incremental run had zero score-cache hits", name)
			}
		}
	}
}

// Incremental sessions sharing one repository must be race-free: answers
// recorded by one session are reused by the others mid-flight (applyKnown
// deltas), which exercises the cache-reconciliation path concurrently with
// repository writes. Run with -race.
func TestIncrementalConcurrentSharedRepository(t *testing.T) {
	udb, res := syntheticWorkload(t, 60, 16, 5, 4, 9000)
	gt := uncertain.GenerateFixed(udb, 0.5, 9001)
	repo := NewRepository()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Utility: General{}, Learning: LearnEP, Seed: int64(i)}
			if i%2 == 0 {
				cfg.Utility = RO{}
			}
			sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo, cfg)
			if err != nil {
				errs <- err
				return
			}
			if _, err := sess.Run(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := groundTruthAnswer(res, gt.Val)
	cfg := Config{Utility: General{}, Learning: LearnEP, Seed: 99}
	sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Answers {
		if a.Correct != want[a.Row] {
			t.Errorf("row %d resolved %t, want %t", a.Row, a.Correct, want[a.Row])
		}
	}
}

// BenchmarkUtilityScores measures one cold selection round of each
// utility over a 200-expression workset: a fresh session's shard caches
// filled from scratch — every candidate's probability and score — and
// the argmax picked.
func BenchmarkUtilityScores(b *testing.B) {
	exprs := make([]boolexpr.Expr, 200)
	for i := range exprs {
		base := boolexpr.Var(i * 4)
		exprs[i] = boolexpr.NewExpr(
			boolexpr.NewTerm(base, base+1, boolexpr.Var(997)),
			boolexpr.NewTerm(base+2, base+3, boolexpr.Var(998)),
		)
	}
	udb, res := exprWorkload(999, exprs...)
	for _, u := range []Utility{RO{}, General{}, QValue{}} {
		b.Run(u.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess, err := NewSession(udb, res, nil, nil, Config{Utility: u, Learning: LearnEP})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := sess.NextProbe(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
