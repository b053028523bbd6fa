package qres_test

// This file holds the testing.B entry points that regenerate every table
// and figure of the paper's evaluation (one benchmark per experiment; see
// DESIGN.md for the experiment index), plus micro-benchmarks of the
// framework's hot components. The experiment benchmarks run the harness at
// a reduced "bench" scale so the full suite completes in minutes; use
// cmd/qres-bench for the quick- and full-scale regenerations with printed
// report tables.

import (
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
	if err := bench.AppendTrajectory(filepath.Join("results", "BENCH_engine.json"), point); err != nil {
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
