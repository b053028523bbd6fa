package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"qres/internal/bench"
	"qres/internal/datagen"
	"qres/internal/engine"
	"qres/internal/sqlparse"
)

// BenchmarkEngine measures SPJU evaluation on the join-heavy TPC-H-like
// queries, comparing the test-only materializing reference executor
// (RunReference, the pre-streaming control) against the streaming executor
// run serially (engine.Run: predicate pushdown + Volcano iterators) and at
// 2, 4 and 8 workers (engine.RunWith). All modes run the same plans over
// the same database and produce row-for-row identical results (the
// equivalence tests in this package enforce this), so ns/op is directly
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
	bench.AppendTrajectory(b, filepath.Join("..", "..", "results", "BENCH_engine.json"), point)
}
