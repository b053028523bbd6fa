package resolve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/engine"
	"qres/internal/obs"
	"qres/internal/oracle"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// multiComponentWorkload builds a synthetic workset of `comps` connected
// components: each component draws its variables from a private range, so
// the union-find split is exactly `comps` groups. Rows interleave the
// components (row i belongs to component i%comps), exercising grouping of
// non-contiguous expression indices.
func multiComponentWorkload(t testing.TB, comps, varsPer, exprsPer, maxTerms, maxTermSize int, seed int64) (*uncertain.DB, *engine.Result) {
	t.Helper()
	db := table.NewDatabase()
	rel := table.NewRelation("facts", table.NewSchema(table.Column{Name: "id", Kind: table.KindInt}))
	rng := rand.New(rand.NewSource(seed))
	nvars := comps * varsPer
	for i := 0; i < nvars; i++ {
		rel.MustAppend(table.Tuple{table.Int(int64(i))},
			table.Metadata{"source": fmt.Sprintf("src-%d", i%5)})
	}
	db.MustAdd(rel)
	udb := uncertain.New(db)

	res := &engine.Result{Columns: []engine.OutCol{{Name: "id", Kind: table.KindInt}}}
	for i := 0; i < comps*exprsPer; i++ {
		c := i % comps
		nt := 1 + rng.Intn(maxTerms)
		terms := make([]boolexpr.Term, 0, nt)
		for j := 0; j < nt; j++ {
			size := 1 + rng.Intn(maxTermSize)
			vars := make([]boolexpr.Var, 0, size)
			for k := 0; k < size; k++ {
				vars = append(vars, boolexpr.Var(c*varsPer+rng.Intn(varsPer)))
			}
			terms = append(terms, boolexpr.NewTerm(vars...))
		}
		res.Rows = append(res.Rows, engine.Row{
			Tuple: table.Tuple{table.Int(int64(i))},
			Prov:  boolexpr.NewExpr(terms...),
		})
	}
	return udb, res
}

// Component-sharded selection must be invisible: for every utility and
// learning mode, and for any shard-worker count, the probe sequence and
// the resolved answer set must be bit-identical to the one-shard scan and
// to the full recompute.
func TestShardEquivalenceSynthetic(t *testing.T) {
	for trial := int64(0); trial < 2; trial++ {
		udb, res := multiComponentWorkload(t, 5, 12, 4, 4, 3, 5000+trial)
		gt := uncertain.GenerateFixed(udb, 0.5, 5100+trial)

		known := make(map[boolexpr.Var]float64)
		for _, v := range res.UniqueVars() {
			known[v] = 0.1 + 0.8*float64(int(v)%7)/6
		}
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
		for _, cfg := range base {
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
			if prod.Components() < 2 {
				t.Fatalf("%s: workload has %d components; need >= 2", name, prod.Components())
			}
			if len(prod.shards) != prod.Components() {
				t.Fatalf("%s: %d shards for %d components", name, len(prod.shards), prod.Components())
			}
		}
	}
}

// Between Learner retrains, a shard untouched by probe deltas must serve
// its round from the cached winner: whole rounds skip scoring entirely.
func TestShardWinnerReuse(t *testing.T) {
	udb, res := multiComponentWorkload(t, 6, 10, 4, 3, 3, 7000)
	gt := uncertain.GenerateFixed(udb, 0.5, 7001)
	for _, cfg := range []Config{
		{Utility: QValue{}, Learning: LearnEP, CNFClauseBound: 256},
		{Utility: General{}, Learning: LearnEP},
	} {
		sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		if sess.shards == nil {
			t.Fatalf("%s: sharding did not engage", cfg.Name())
		}
		if sess.Stats().ShardRoundsReused == 0 {
			t.Errorf("%s: no shard round was served from a cached winner", cfg.Name())
		}
	}
}

// Every cache hit and miss must reach the metrics registry, including the
// rounds a shard serves from its cached winner: the registry's counters
// (what /metrics and the trace report read) must equal the session Stats.
func TestShardCacheCountersReachRegistry(t *testing.T) {
	udb, res := multiComponentWorkload(t, 6, 10, 4, 3, 3, 7000)
	gt := uncertain.GenerateFixed(udb, 0.5, 7001)
	for _, cfg := range []Config{
		{Utility: QValue{}, Learning: LearnEP, CNFClauseBound: 256},
		{Utility: General{}, Learning: LearnEP},
	} {
		reg := obs.NewRegistry()
		cfg.Obs = obs.New("", nil, reg)
		sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		st := sess.Stats()
		if st.ShardRoundsReused == 0 {
			t.Fatalf("%s: no shard round was served from a cached winner", cfg.Name())
		}
		for _, c := range []struct {
			counter string
			stats   int
		}{
			{"prob_cache_hits", st.ProbCacheHits},
			{"prob_cache_misses", st.ProbCacheMisses},
			{"score_cache_hits", st.ScoreCacheHits},
			{"score_cache_misses", st.ScoreCacheMisses},
			{"vars_rescored", st.VarsRescored},
		} {
			if got := reg.Counter(c.counter, cfg.Name()).Value(); got != int64(c.stats) {
				t.Errorf("%s: registry %s = %d, Stats = %d", cfg.Name(), c.counter, got, c.stats)
			}
		}
	}
}

// Sharded sessions sharing one repository must be race-free: answers
// recorded by one session flow into the others mid-flight, reconciling
// shard caches concurrently with repository writes. Run with -race.
func TestShardConcurrentSharedRepository(t *testing.T) {
	udb, res := multiComponentWorkload(t, 5, 12, 4, 3, 3, 8000)
	gt := uncertain.GenerateFixed(udb, 0.5, 8001)
	repo := NewRepository()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Utility: General{}, Learning: LearnEP, Seed: int64(i),
				Parallel: Parallelism{Shards: 1 + i%4}}
			if i%2 == 0 {
				cfg.Utility = RO{}
			}
			sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo, cfg)
			if err != nil {
				errs <- err
				return
			}
			// Later sessions may find the workset partly (or fully) decided
			// by earlier ones' repository answers, so sharding engaging is
			// timing-dependent here; the point is race-freedom under -race.
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
	sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo,
		Config{Utility: General{}, Learning: LearnEP, Seed: 99})
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

// Baselines select without shards — Random's RNG stream must not depend
// on the component structure — and still resolve correctly.
func TestShardIneligibleConfigs(t *testing.T) {
	udb, res := multiComponentWorkload(t, 4, 10, 3, 3, 3, 8100)
	gt := uncertain.GenerateFixed(udb, 0.5, 8101)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"baseline random", Config{Baseline: BaselineRandom}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sess.shards != nil {
				t.Fatal("baseline built shards")
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			want := groundTruthAnswer(res, gt.Val)
			for i, st := range sess.Snapshot() {
				wantSt := RowIncorrect
				if want[i] {
					wantSt = RowCorrect
				}
				if st != wantSt {
					t.Errorf("row %d status %v, want %v", i, st, wantSt)
				}
			}
		})
	}
}

// The component signature must be a pure function of the workset's
// component structure: identical across sessions over the same query and
// repository state, different when the structure differs.
func TestShardComponentSignature(t *testing.T) {
	udb, res := multiComponentWorkload(t, 5, 12, 4, 3, 3, 8200)
	gt := uncertain.GenerateFixed(udb, 0.5, 8201)
	cfg := Config{Utility: General{}, Learning: LearnEP}

	mk := func(r *engine.Result) *Session {
		sess, err := NewSession(udb, r, oracle.NewGroundTruth(gt.Val), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	a, b := mk(res), mk(res)
	if a.ComponentSignature() == "" || len(a.ComponentSignature()) != 16 {
		t.Fatalf("malformed signature %q", a.ComponentSignature())
	}
	if a.ComponentSignature() != b.ComponentSignature() {
		t.Errorf("same workload, different signatures: %s vs %s",
			a.ComponentSignature(), b.ComponentSignature())
	}
	// Each variable block yields at least one component; sparse random
	// draws inside a block may split it further.
	if a.Components() < 5 {
		t.Errorf("Components() = %d, want >= 5", a.Components())
	}

	udb2, res2 := multiComponentWorkload(t, 3, 12, 4, 3, 3, 8200)
	sess2, err := NewSession(udb2, res2, oracle.NewGroundTruth(gt.Val), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.ComponentSignature() == a.ComponentSignature() {
		t.Error("structurally different worksets share a signature")
	}
}

// The k-way merged weight statistics must equal the single-multiset scan
// over the concatenation — including duplicate weights across shards and
// sub-tolerance gaps.
func TestShardMergedWeightStats(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]float64
	}{
		{"empty", nil},
		{"one list", [][]float64{{0.1, 0.5, 0.9}}},
		{"disjoint", [][]float64{{0.1, 0.4}, {0.2, 0.3}, {0.05}}},
		{"duplicates across lists", [][]float64{{0.2, 0.2, 0.7}, {0.2, 0.7}}},
		{"tiny gaps", [][]float64{{0.3, 0.3 + 1e-13}, {0.3 + 2e-13, 0.5}}},
		{"some empty", [][]float64{{}, {0.6, 0.8}, {}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var all []float64
			for _, l := range tc.lists {
				all = append(all, l...)
			}
			sort.Float64s(all)
			wantMin, wantGap := weightStatsSorted(all)
			gotMin, gotGap := mergedWeightStats(tc.lists)
			if gotMin != wantMin || gotGap != wantGap {
				t.Errorf("mergedWeightStats = (%v, %v), want (%v, %v)",
					gotMin, gotGap, wantMin, wantGap)
			}
		})
	}
}

// BenchmarkShardStepSynthetic measures per-probe wall time on a wide
// multi-component synthetic workset, the one-shard scan ("monolithic")
// versus production's shard per component at 1/2/4/8 shard workers. With
// a stable Learner version and a cacheable score kind every round, the
// one shard still rebuilds its candidate scan over the whole workset per
// probe while the sharded path rescans only the probed component and
// serves the rest from cached winners — this is the workload class
// results/BENCH_shard.json pins the >=1.5x 4-worker speedup target on.
func BenchmarkShardStepSynthetic(b *testing.B) {
	udb, res := multiComponentWorkload(b, 400, 12, 5, 5, 2, 9000)
	gt := uncertain.GenerateFixed(udb, 0.5, 9100)
	known := make(map[boolexpr.Var]float64)
	for _, v := range res.UniqueVars() {
		known[v] = 0.1 + 0.8*float64(int(v)%7)/6
	}

	modes := []struct {
		name   string
		shards int
		hook   func(*Session)
	}{
		{"monolithic", 0, (*Session).useOneShard},
		{"shards-1", 1, nil},
		{"shards-2", 2, nil},
		{"shards-4", 4, nil},
		{"shards-8", 8, nil},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Utility: QValue{}, KnownProbs: known, CNFClauseBound: 256, Seed: 7,
				Parallel: Parallelism{Shards: mode.shards}}
			var steps int
			var inLoop time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if mode.hook != nil {
					mode.hook(sess)
				}
				b.StartTimer()
				start := time.Now()
				for !sess.Done() {
					if _, _, err := sess.Step(); err != nil {
						b.Fatal(err)
					}
					steps++
				}
				inLoop += time.Since(start)
			}
			if steps > 0 {
				b.ReportMetric(float64(inLoop.Nanoseconds())/float64(steps), "ns/step")
			}
		})
	}
}
