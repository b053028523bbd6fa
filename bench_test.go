package qres_test

// This file holds the testing.B entry points that regenerate every table
// and figure of the paper's evaluation (one benchmark per experiment; see
// DESIGN.md for the experiment index), plus micro-benchmarks of the
// framework's hot components. The experiment benchmarks run the harness at
// a reduced "bench" scale so the full suite completes in minutes; use
// cmd/qres-bench for the quick- and full-scale regenerations with printed
// report tables.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"qres/internal/bench"
	"qres/internal/boolexpr"
	"qres/internal/datagen"
	"qres/internal/engine"
	"qres/internal/learn"
	"qres/internal/resolve"
	"qres/internal/sqlparse"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

// benchScale keeps each experiment iteration in the seconds range.
func benchScale() bench.Scale {
	return bench.Scale{TPCHSF: 0.0012, NELLAthletes: 60, InitialProbes: 60, Trees: 10, Reps: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	sc := benchScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(sc, int64(2023+i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// One benchmark per paper table/figure (the per-experiment index lives in
// DESIGN.md; paper-vs-measured numbers in EXPERIMENTS.md).

func BenchmarkTable3QueryStats(b *testing.B)     { runExperiment(b, "table3") }
func BenchmarkTable4ComponentTimes(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig5Overall(b *testing.B)          { runExperiment(b, "fig5") }
func BenchmarkFig6OutputSize(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkFig7Probabilities(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig8Splitting(b *testing.B)        { runExperiment(b, "fig8") }
func BenchmarkFig9Learning(b *testing.B)         { runExperiment(b, "fig9") }

// Ablation benchmarks for the design choices called out in DESIGN.md §5.

func BenchmarkAblationSelector(b *testing.B)   { runExperiment(b, "ablation-selector") }
func BenchmarkAblationModel(b *testing.B)      { runExperiment(b, "ablation-model") }
func BenchmarkAblationSplitBound(b *testing.B) { runExperiment(b, "ablation-splitbound") }
func BenchmarkAblationTrees(b *testing.B)      { runExperiment(b, "ablation-trees") }
func BenchmarkAblationParallel(b *testing.B)   { runExperiment(b, "ablation-parallel") }

// Component micro-benchmarks.

// BenchmarkProvenanceEvaluation measures SPJU evaluation with provenance
// tracking on the paper's running example.
func BenchmarkProvenanceEvaluation(b *testing.B) {
	udb := testdb.PaperUncertainDB()
	plan := testdb.PaperQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(udb, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine measures SPJU evaluation on the join-heavy TPC-H-like
// queries, comparing the pinned materializing executor (engine.RunReference,
// the pre-streaming control) against the streaming executor run serially
// (engine.Run: predicate pushdown + Volcano iterators) and at 2, 4 and 8
// workers (engine.RunWith). All modes run the same plans over the same
// database and produce row-for-row identical results (the equivalence
// tests in internal/engine enforce this), so ns/op is directly
// comparable. The scale factor defaults to 0.02 and can be raised with
// QRES_ENGINE_SF (EXPERIMENTS.md regenerates at 0.02, 0.1 and 1);
// generation uses Lean mode so large scale factors skip the metadata the
// engine never reads. After all sub-benchmarks run, the per-query
// measurements are appended as one trajectory point to
// results/BENCH_engine.json, with serial streaming pinned as the control
// the parallel speedups are computed against. Each point records
// runtime.NumCPU, GOMAXPROCS and the Go version, since parallel speedups
// mean nothing without them. Pass one -cpu value per invocation: go test
// applies a -cpu list to each sub-benchmark, so the point would hold only
// the last value's measurements.
func BenchmarkEngine(b *testing.B) {
	sf := 0.02
	if s := os.Getenv("QRES_ENGINE_SF"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			b.Fatalf("bad QRES_ENGINE_SF %q: %v", s, err)
		}
		sf = v
	}
	udb := datagen.TPCH(datagen.TPCHConfig{SF: sf, Seed: 7, Lean: true})
	type measure struct{ ns, bytes float64 }
	measures := make(map[string]map[string]measure)
	queries := []string{"Q3", "Q10"}
	parallelWorkers := []int{2, 4, 8}
	for _, qname := range queries {
		plan, err := sqlparse.ParseAndCompile(datagen.TPCHQueries()[qname], udb.Data())
		if err != nil {
			b.Fatalf("compile %s: %v", qname, err)
		}
		measures[qname] = make(map[string]measure)
		modes := []struct {
			name string
			run  func() (*engine.Result, error)
		}{
			{"reference", func() (*engine.Result, error) { return engine.RunReference(udb, plan) }},
			{"streaming", func() (*engine.Result, error) { return engine.Run(udb, plan) }},
		}
		for _, w := range parallelWorkers {
			w := w
			modes = append(modes, struct {
				name string
				run  func() (*engine.Result, error)
			}{fmt.Sprintf("parallel%d", w), func() (*engine.Result, error) {
				return engine.RunWith(udb, plan, engine.Exec{Workers: w})
			}})
		}
		for _, mode := range modes {
			b.Run(qname+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := mode.run()
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatalf("%s returned no rows at SF %g", qname, sf)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				measures[qname][mode.name] = measure{
					ns:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
					bytes: float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N),
				}
			})
		}
	}
	point := map[string]any{
		"date":         time.Now().UTC().Format("2006-01-02"),
		"benchmark":    "engine",
		"scale_factor": sf,
		"tuples":       udb.Data().TotalTuples(),
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
	}
	for _, qname := range queries {
		ref, str := measures[qname]["reference"], measures[qname]["streaming"]
		if ref.ns == 0 || str.ns == 0 {
			return // a sub-benchmark was filtered out; nothing to record
		}
		q := map[string]any{
			"control":         "streaming",
			"control_ns":      ref.ns,
			"streaming_ns":    str.ns,
			"speedup":         ref.ns / str.ns,
			"control_bytes":   ref.bytes,
			"streaming_bytes": str.bytes,
			"alloc_ratio":     ref.bytes / str.bytes,
		}
		parNS := make(map[string]any, len(parallelWorkers))
		parSpeedup := make(map[string]any, len(parallelWorkers))
		for _, w := range parallelWorkers {
			par := measures[qname][fmt.Sprintf("parallel%d", w)]
			if par.ns == 0 {
				return // a sub-benchmark was filtered out; nothing to record
			}
			key := strconv.Itoa(w)
			parNS[key] = par.ns
			// Parallel speedup is measured against the serial streaming
			// executor (the pinned control), not the materializing one.
			parSpeedup[key] = str.ns / par.ns
		}
		q["parallel_ns"] = parNS
		q["parallel_speedup"] = parSpeedup
		point[qname] = q
	}
	if err := appendBenchTrajectory(filepath.Join("results", "BENCH_engine.json"), point); err != nil {
		b.Logf("recording trajectory point: %v", err)
	}
}

// BenchmarkSimplify measures partial-valuation simplification of a 64-term
// 4-DNF, the per-probe bookkeeping cost.
func BenchmarkSimplify(b *testing.B) {
	terms := make([]boolexpr.Term, 64)
	for i := range terms {
		terms[i] = boolexpr.NewTerm(
			boolexpr.Var(i), boolexpr.Var(64+i%16), boolexpr.Var(96+i%8), boolexpr.Var(110))
	}
	e := boolexpr.NewExpr(terms...)
	val := boolexpr.NewValuation()
	val.Set(110, true)
	val.Set(96, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Simplify(val)
	}
}

// BenchmarkToCNF measures the bounded DNF→CNF conversion Q-Value depends
// on (an 8-term 3-DNF, the typical post-split size).
func BenchmarkToCNF(b *testing.B) {
	terms := make([]boolexpr.Term, 8)
	for i := range terms {
		terms[i] = boolexpr.NewTerm(boolexpr.Var(3*i), boolexpr.Var(3*i+1), boolexpr.Var(3*i+2))
	}
	e := boolexpr.NewExpr(terms...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := e.ToCNF(0); !ok {
			b.Fatal("conversion failed")
		}
	}
}

// BenchmarkToCNFAbort measures a trial conversion of an oversized
// expression at the default clause bound (4096), as the split pass makes
// before it splits: 16 terms, each of two private variables and one of
// four shared ones, so rounds absorb clauses and the bound still trips.
func BenchmarkToCNFAbort(b *testing.B) {
	terms := make([]boolexpr.Term, 16)
	for i := range terms {
		terms[i] = boolexpr.NewTerm(boolexpr.Var(3*i), boolexpr.Var(3*i+1), boolexpr.Var(1000+i%4))
	}
	e := boolexpr.NewExpr(terms...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := e.ToCNF(4096); ok {
			b.Fatal("conversion fit the bound")
		}
	}
}

// forestFitDataset builds the forest-training benchmark input: 800 rows
// over 8 categorical features of cardinality 12, roughly the encoded shape
// of a seeded TPC-H repository.
func forestFitDataset() *learn.Dataset {
	d := &learn.Dataset{}
	for i := 0; i < 800; i++ {
		x := make([]int32, 8)
		for f := range x {
			x[f] = int32((i*(f+3) + f*f) % 12)
		}
		d.Add(x, (i*7)%12 < 5)
	}
	return d
}

// BenchmarkForestFit measures random-forest training at the online-
// retraining size, comparing the retained pre-optimization implementation
// (reference: shared sequential RNG, map-based split counting, per-node
// allocation) against the optimized trainer serially (Workers=1) and with
// one worker per CPU (Workers=0). After all sub-benchmarks run, the trio
// is appended as a trajectory point to results/BENCH_learn.json.
func BenchmarkForestFit(b *testing.B) {
	d := forestFitDataset()
	cfg := learn.ForestConfig{Trees: 25, Seed: 11}
	nsPerFit := make(map[string]float64)
	for _, mode := range []struct {
		name string
		fit  func(int64) *learn.Forest
	}{
		{"reference", func(seed int64) *learn.Forest {
			c := cfg
			c.Seed = seed
			return learn.FitForestReference(d, c)
		}},
		{"serial", func(seed int64) *learn.Forest {
			c := cfg
			c.Seed, c.Workers = seed, 1
			return learn.FitForest(d, c)
		}},
		{"parallel", func(seed int64) *learn.Forest {
			c := cfg
			c.Seed, c.Workers = seed, 0
			return learn.FitForest(d, c)
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mode.fit(int64(i))
			}
			nsPerFit[mode.name] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	if nsPerFit["reference"] == 0 || nsPerFit["serial"] == 0 || nsPerFit["parallel"] == 0 {
		return // a sub-benchmark was filtered out; nothing to record
	}
	point := map[string]any{
		"date":            time.Now().UTC().Format("2006-01-02"),
		"benchmark":       "forest_fit",
		"rows":            d.Len(),
		"features":        d.NumFeatures(),
		"trees":           cfg.Trees,
		"reference_ns":    nsPerFit["reference"],
		"serial_ns":       nsPerFit["serial"],
		"parallel_ns":     nsPerFit["parallel"],
		"serial_speedup":  nsPerFit["reference"] / nsPerFit["serial"],
		"overall_speedup": nsPerFit["reference"] / nsPerFit["parallel"],
	}
	if err := appendBenchTrajectory(filepath.Join("results", "BENCH_learn.json"), point); err != nil {
		b.Logf("recording trajectory point: %v", err)
	}
}

// BenchmarkRetrain measures one online-learning retrain on a seeded TPC-H
// repository — the Learner's per-probe cost and the bottleneck of online
// mode. "full" reproduces the pre-optimization retrain exactly (fresh
// encoder, full repository re-encode, reference forest trainer per
// answer); "warm" is the current Learner (encoder reuse, append-only
// delta encoding, optimized trainer at Workers=GOMAXPROCS). Both process
// the same answer stream, so ns/retrain is directly comparable; the pair
// lands in results/BENCH_learn.json.
func BenchmarkRetrain(b *testing.B) {
	sc := bench.Scale{TPCHSF: 0.02, NELLAthletes: 120, InitialProbes: 300, Trees: 25, Reps: 1}
	w, err := bench.LoadTPCH("Q3", sc, bench.FixedGroundTruth(0.5), 7)
	if err != nil {
		b.Fatal(err)
	}
	baseRepo := w.Repository(sc.InitialProbes, 7)
	// The answer stream: provenance variables not already in the seeded
	// repository, answered by the ground truth.
	var stream []boolexpr.Var
	for _, v := range w.Result.UniqueVars() {
		if _, known := baseRepo.Answer(v); !known {
			stream = append(stream, v)
		}
	}
	const retrainsPerIter = 10
	if len(stream) < retrainsPerIter {
		b.Fatalf("only %d stream variables", len(stream))
	}
	stream = stream[:retrainsPerIter]

	nsPerRetrain := make(map[string]float64)

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			repo := baseRepo.Clone()
			for r, v := range stream {
				ans, _ := w.GT.Val.Get(v)
				repo.AddVar(v, w.DB.MetaFor(v), ans)
				enc := learn.NewEncoder(repo.Metas())
				data := repo.Dataset(enc)
				f := learn.FitForestReference(data, learn.ForestConfig{
					Trees: sc.Trees, Seed: 7 + int64(r),
				})
				if f.NumTrees() != sc.Trees {
					b.Fatal("reference retrain produced a short forest")
				}
			}
		}
		nsPerRetrain["full"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N*retrainsPerIter)
	})

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			learner := resolve.NewLearner(w.DB, baseRepo.Clone(), resolve.LearnerConfig{
				Mode: resolve.LearnOnline, Trees: sc.Trees, Seed: 7,
			})
			b.StartTimer()
			for _, v := range stream {
				ans, _ := w.GT.Val.Get(v)
				learner.Observe(v, ans)
			}
			if learner.Retrains() != retrainsPerIter+1 { // +1 for the construction-time fit
				b.Fatalf("warm learner retrained %d times", learner.Retrains())
			}
		}
		nsPerRetrain["warm"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N*retrainsPerIter)
	})

	full, warm := nsPerRetrain["full"], nsPerRetrain["warm"]
	if full == 0 || warm == 0 {
		return // a sub-benchmark was filtered out; nothing to record
	}
	point := map[string]any{
		"date":                time.Now().UTC().Format("2006-01-02"),
		"benchmark":           "retrain",
		"workload":            "tpch-q3",
		"scale_factor":        sc.TPCHSF,
		"repo_size":           baseRepo.Len(),
		"trees":               sc.Trees,
		"retrains":            retrainsPerIter,
		"full_ns_per_retrain": full,
		"warm_ns_per_retrain": warm,
		"speedup":             full / warm,
	}
	if err := appendBenchTrajectory(filepath.Join("results", "BENCH_learn.json"), point); err != nil {
		b.Logf("recording trajectory point: %v", err)
	}
}

// BenchmarkForestPredict measures per-candidate probability estimation.
func BenchmarkForestPredict(b *testing.B) {
	d := &learn.Dataset{}
	for i := 0; i < 400; i++ {
		d.Add([]int32{int32(i % 7), int32(i % 13), int32(i % 3)}, i%3 == 0)
	}
	f := learn.FitForest(d, learn.ForestConfig{Trees: 25, Seed: 1})
	x := []int32{3, 5, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.ProbTrue(x)
	}
}

// BenchmarkResolveSession measures a full resolution of the paper's
// running example with the General utility (EP learning).
func BenchmarkResolveSession(b *testing.B) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		b.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 3)
	orc := benchOracle{val: gt.Val}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, err := resolve.NewSession(udb, res, orc, nil,
			resolve.Config{Utility: resolve.General{}, Learning: resolve.LearnEP, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

type benchOracle struct{ val *boolexpr.Valuation }

func (o benchOracle) Probe(v boolexpr.Var) (bool, error) {
	answer, _ := o.val.Get(v)
	return answer, nil
}

// BenchmarkUtilityScores measures one scoring round of each utility over
// a 200-expression workset.
func BenchmarkUtilityScores(b *testing.B) {
	exprs := make([]boolexpr.Expr, 200)
	partOf := make([]int, 200)
	for i := range exprs {
		base := boolexpr.Var(i * 4)
		exprs[i] = boolexpr.NewExpr(
			boolexpr.NewTerm(base, base+1, boolexpr.Var(997)),
			boolexpr.NewTerm(base+2, base+3, boolexpr.Var(998)),
		)
		partOf[i] = i
	}
	prob := func(v boolexpr.Var) float64 { return 0.5 }
	for _, u := range []resolve.Utility{resolve.RO{}, resolve.General{}, resolve.QValue{}} {
		b.Run(u.Name(), func(b *testing.B) {
			w, err := resolve.NewWorksetForBench(exprs, partOf, u.NeedsCNF())
			if err != nil {
				b.Fatal(err)
			}
			cands := resolve.WorksetCandidates(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = u.Scores(w, prob, cands, i)
			}
		})
	}
}

// BenchmarkResolveStepPath measures the per-step resolve path — probe
// selection (probabilities, utility, selector) plus answer simplification
// — with the incremental hot path on and off, on the large TPC-H-like
// workload. The probe sequences are identical in both modes (see the
// equivalence tests), so ns/step is directly comparable. After both
// sub-benchmarks run, the pair is appended as a trajectory point to
// results/BENCH_resolve.json.
func BenchmarkResolveStepPath(b *testing.B) {
	sc := bench.Scale{TPCHSF: 0.02, NELLAthletes: 120, InitialProbes: 0, Trees: 10, Reps: 1}
	w, err := bench.LoadTPCH("Q3", sc, bench.FixedGroundTruth(0.5), 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := resolve.Config{Utility: resolve.General{}, Learning: resolve.LearnEP}
	nsPerStep := make(map[string]float64)
	var steps int
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"full", true},
		{"incremental", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := cfg
			c.DisableIncremental = mode.disable
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := w.RunWithOracle(c, 0, 7, w.Oracle())
				if err != nil {
					b.Fatal(err)
				}
				total += out.Probes
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(total)
			b.ReportMetric(ns, "ns/step")
			nsPerStep[mode.name] = ns
			steps = total / b.N
		})
	}
	full, inc := nsPerStep["full"], nsPerStep["incremental"]
	if full == 0 || inc == 0 {
		return // a sub-benchmark was filtered out; nothing to record
	}
	point := map[string]any{
		"date":                    time.Now().UTC().Format("2006-01-02"),
		"workload":                "tpch-q3",
		"config":                  cfg.Name(),
		"scale_factor":            sc.TPCHSF,
		"steps":                   steps,
		"full_ns_per_step":        full,
		"incremental_ns_per_step": inc,
		"speedup":                 full / inc,
	}
	if err := appendBenchTrajectory(filepath.Join("results", "BENCH_resolve.json"), point); err != nil {
		b.Logf("recording trajectory point: %v", err)
	}
}

// appendBenchTrajectory appends one measurement to a JSON trajectory file
// (an array of points, newest last).
func appendBenchTrajectory(path string, point map[string]any) error {
	var points []map[string]any
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &points); err != nil {
			return err
		}
	}
	points = append(points, point)
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
