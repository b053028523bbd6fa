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
	"qres/internal/testdb"
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
// results/BENCH_engine.json. Per query, "control" names the executor whose
// numbers control_ns and control_bytes hold and that speedup and
// alloc_ratio divide by (the reference), and "parallel_control" names the
// baseline of parallel_speedup (serial streaming). Each point records
// runtime.NumCPU, GOMAXPROCS and the Go version, since parallel speedups
// mean nothing without them. Pass one -cpu value per invocation: go test
// applies a -cpu list to each sub-benchmark, so the point would hold only
// the last value's measurements.
//
// Two workloads record under their own keys. Q1 (six output rows, each
// the disjunction of a quarter of lineitem) runs the streaming modes
// only: the reference's pairwise provenance merge is quadratic in a
// group's size and takes ≈ 17 s per run at SF 0.02; its parallel_control
// is serial streaming. "q10-months" evaluates the one-month Q10 instances
// (testdb.Q10Months; 84 at SF 0.02), serially and in calendar order,
// three ways: without a build cache (the control), on a cache made fresh
// for each pass (cold: the shared builds are kept from the second month
// on), and on a cache that earlier passes warmed (warm).
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
	queries := []string{"Q3", "Q10", "Q1"}
	parallelWorkers := []int{2, 4, 8}
	record := func(qname, mode string, run func() error) {
		b.Run(qname+"/"+mode, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			measures[qname][mode] = measure{
				ns:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				bytes: float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N),
			}
		})
	}
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
		if qname == "Q1" {
			modes = modes[1:]
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
			record(qname, mode.name, func() error {
				res, err := mode.run()
				if err == nil && len(res.Rows) == 0 {
					err = fmt.Errorf("%s returned no rows at SF %g", qname, sf)
				}
				return err
			})
		}
	}

	const monthsKey = "q10-months"
	var months []engine.Node
	for _, sql := range testdb.Q10Months(udb) {
		plan, err := sqlparse.ParseAndCompile(sql, udb.Data())
		if err != nil {
			b.Fatalf("compile Q10 month: %v", err)
		}
		months = append(months, plan)
	}
	measures[monthsKey] = make(map[string]measure)
	pass := func(builds *engine.BuildCache) error {
		for _, plan := range months {
			if _, err := engine.RunWith(udb, plan, engine.Exec{Workers: 1, Builds: builds}); err != nil {
				return err
			}
		}
		return nil
	}
	record(monthsKey, "no_cache", func() error { return pass(nil) })
	record(monthsKey, "cold", func() error { return pass(engine.NewBuildCache(udb)) })
	warm := engine.NewBuildCache(udb)
	for i := 0; i < 2; i++ {
		if err := pass(warm); err != nil {
			b.Fatal(err)
		}
	}
	record(monthsKey, "warm", func() error { return pass(warm) })

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
		if str.ns == 0 || (ref.ns == 0 && qname != "Q1") {
			return // a sub-benchmark was filtered out; nothing to record
		}
		q := map[string]any{"streaming_ns": str.ns, "streaming_bytes": str.bytes}
		if qname != "Q1" {
			q["control"] = "reference"
			q["control_ns"] = ref.ns
			q["speedup"] = ref.ns / str.ns
			q["control_bytes"] = ref.bytes
			q["alloc_ratio"] = ref.bytes / str.bytes
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
			parSpeedup[key] = str.ns / par.ns
		}
		q["parallel_control"] = "streaming"
		q["parallel_ns"] = parNS
		q["parallel_speedup"] = parSpeedup
		point[qname] = q
	}
	m := measures[monthsKey]
	ctl, cold, hot := m["no_cache"], m["cold"], m["warm"]
	if ctl.ns == 0 || cold.ns == 0 || hot.ns == 0 {
		return // a sub-benchmark was filtered out; nothing to record
	}
	point[monthsKey] = map[string]any{
		"months":        len(months),
		"control":       "no_cache",
		"control_ns":    ctl.ns,
		"cold_ns":       cold.ns,
		"warm_ns":       hot.ns,
		"cold_speedup":  ctl.ns / cold.ns,
		"warm_speedup":  ctl.ns / hot.ns,
		"control_bytes": ctl.bytes,
		"cold_bytes":    cold.bytes,
		"warm_bytes":    hot.bytes,
	}
	bench.AppendTrajectory(b, filepath.Join("..", "..", "results", "BENCH_engine.json"), point)
}
