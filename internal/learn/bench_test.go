package learn_test

import (
	"path/filepath"
	"testing"
	"time"

	"qres/internal/bench"
	"qres/internal/boolexpr"
	"qres/internal/learn"
	"qres/internal/resolve"
)

// benchLearnPath is the trajectory file the learning benchmarks append to.
var benchLearnPath = filepath.Join("..", "..", "results", "BENCH_learn.json")

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

// tpchRetrainWorkload is the online-retraining input BenchmarkRetrain and
// the TPC-H sub-benchmarks of BenchmarkForestFit share: TPC-H Q3 at SF
// 0.02 with a repository seeded from 300 answered off-provenance tuples.
func tpchRetrainWorkload(b *testing.B) (*bench.Workload, bench.Scale, *resolve.Repository) {
	sc := bench.Scale{TPCHSF: 0.02, NELLAthletes: 120, InitialProbes: 300, Trees: 25, Reps: 1}
	w, err := bench.LoadTPCH("Q3", sc, bench.FixedGroundTruth(0.5), 7)
	if err != nil {
		b.Fatal(err)
	}
	return w, sc, w.Repository(sc.InitialProbes, 7)
}

// BenchmarkForestFit measures random-forest training at the online-
// retraining size, comparing the retained pre-optimization implementation
// (reference: shared sequential RNG, map-based split counting, per-node
// allocation) against the optimized trainer serially (Workers=1) and with
// one worker per CPU (Workers=0). The tpch-* sub-benchmarks fit the
// encoded TPC-H repository of BenchmarkRetrain instead: one near-unique
// entity feature beside low-cardinality ones, which the synthetic input
// lacks. After all sub-benchmarks run, the point is appended to
// results/BENCH_learn.json.
func BenchmarkForestFit(b *testing.B) {
	d := forestFitDataset()
	_, _, repo := tpchRetrainWorkload(b)
	tpch := repo.Dataset(learn.NewEncoder(repo.Metas()))
	cfg := learn.ForestConfig{Trees: 25, Seed: 11}
	fit := func(d *learn.Dataset, workers int) func(int64) *learn.Forest {
		return func(seed int64) *learn.Forest {
			c := cfg
			c.Seed, c.Workers = seed, workers
			return learn.FitForest(d, c)
		}
	}
	reference := func(d *learn.Dataset) func(int64) *learn.Forest {
		return func(seed int64) *learn.Forest {
			c := cfg
			c.Seed = seed
			return learn.FitForestReference(d, c)
		}
	}
	nsPerFit := make(map[string]float64)
	for _, mode := range []struct {
		name string
		fit  func(int64) *learn.Forest
	}{
		{"reference", reference(d)},
		{"serial", fit(d, 1)},
		{"parallel", fit(d, 0)},
		{"tpch-reference", reference(tpch)},
		{"tpch-serial", fit(tpch, 1)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mode.fit(int64(i))
			}
			nsPerFit[mode.name] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	if len(nsPerFit) < 5 {
		return // a sub-benchmark was filtered out; nothing to record
	}
	point := map[string]any{
		"date":                time.Now().UTC().Format("2006-01-02"),
		"benchmark":           "forest_fit",
		"rows":                d.Len(),
		"features":            d.NumFeatures(),
		"trees":               cfg.Trees,
		"reference_ns":        nsPerFit["reference"],
		"serial_ns":           nsPerFit["serial"],
		"parallel_ns":         nsPerFit["parallel"],
		"serial_speedup":      nsPerFit["reference"] / nsPerFit["serial"],
		"overall_speedup":     nsPerFit["reference"] / nsPerFit["parallel"],
		"tpch_rows":           tpch.Len(),
		"tpch_features":       tpch.NumFeatures(),
		"tpch_reference_ns":   nsPerFit["tpch-reference"],
		"tpch_serial_ns":      nsPerFit["tpch-serial"],
		"tpch_serial_speedup": nsPerFit["tpch-reference"] / nsPerFit["tpch-serial"],
	}
	bench.AppendTrajectory(b, benchLearnPath, point)
}

// BenchmarkRetrain measures one online-learning retrain on a seeded TPC-H
// repository — the Learner's per-probe cost and the bottleneck of online
// mode. "full" reproduces the pre-optimization retrain exactly (fresh
// encoder, full repository re-encode, reference forest trainer per
// answer); "warm" is the current Learner (encoder extension, append-only
// delta encoding, optimized trainer at Workers=GOMAXPROCS). Both process
// the same answer stream, so ns/retrain is directly comparable; the pair
// lands in results/BENCH_learn.json.
func BenchmarkRetrain(b *testing.B) {
	w, sc, baseRepo := tpchRetrainWorkload(b)
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
	bench.AppendTrajectory(b, benchLearnPath, point)
}
