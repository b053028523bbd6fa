package resolve_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"qres/internal/bench"
	"qres/internal/boolexpr"
	"qres/internal/oracle"
	"qres/internal/resolve"
	"qres/internal/stats"
)

// seedScale is the test scale of the seed-workload equivalence suites.
var seedScale = bench.Scale{TPCHSF: 0.001, NELLAthletes: 50, InitialProbes: 40, Trees: 5, Reps: 1}

// seedWorkload is one of the seed workloads under its test name.
type seedWorkload struct {
	name string
	w    *bench.Workload
}

// seedWorkloads loads the seed workloads — the NELL-like knowledge base
// and the TPC-H-like uncertain database — at scale sc, as the experiment
// harness does.
func seedWorkloads(t testing.TB, sc bench.Scale) []seedWorkload {
	t.Helper()
	nell, err := bench.LoadNELL("MS1", sc, bench.RDTGroundTruth(), 17)
	if err != nil {
		t.Fatalf("nell-ms1: %v", err)
	}
	tpch, err := bench.LoadTPCH("Q3", sc, bench.FixedGroundTruth(0.5), 17)
	if err != nil {
		t.Fatalf("tpch-q3: %v", err)
	}
	return []seedWorkload{{"nell-ms1", nell}, {"tpch-q3", tpch}}
}

// checkSeedPaths runs CheckSelectionPaths on cfg over w, each run
// resolving as Workload.RunWithOracle does at seed 23.
func checkSeedPaths(t *testing.T, name string, w *bench.Workload, cfg resolve.Config) {
	t.Helper()
	resolve.CheckSelectionPaths(t, name, func(hook func(*resolve.Session), par resolve.Parallelism) (*resolve.Session, []boolexpr.Var) {
		c := cfg
		c.Seed, c.Parallel = 23, par
		repo := w.Repository(seedScale.InitialProbes, stats.SubSeed(23, 11))
		rec := oracle.NewRecorder(w.Oracle())
		sess, err := resolve.NewSession(w.DB, w.Result, rec, repo, c)
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
}

// The incremental shard caches must select the identical probe sequence
// and resolve the identical answer set Q(D_val*) as the full per-round
// recompute on the seed workloads, across utilities and learning modes and
// for any worker counts. This is the end-to-end counterpart of
// TestIncrementalEquivalenceSynthetic.
func TestIncrementalEquivalenceSeedWorkloads(t *testing.T) {
	configs := []resolve.Config{
		{Utility: resolve.QValue{}, Learning: resolve.LearnEP},
		{Utility: resolve.RO{}, Learning: resolve.LearnEP},
		{Utility: resolve.General{}, Learning: resolve.LearnEP},
		{Utility: resolve.General{}, Learning: resolve.LearnOffline},
		{Utility: resolve.RO{}, Learning: resolve.LearnOnline},
	}
	for _, ld := range seedWorkloads(t, seedScale) {
		for _, cfg := range configs {
			cfg.Trees = seedScale.Trees
			name := ld.name + "/" + cfg.Name()
			t.Run(name, func(t *testing.T) { checkSeedPaths(t, name, ld.w, cfg) })
		}
	}
}

// Component-sharded selection must pick the identical probe sequence and
// resolve the identical answer set as the one-shard scan and the full
// recompute on the seed workloads, for every tested shard-worker count —
// the end-to-end counterpart of TestShardEquivalenceSynthetic.
func TestShardEquivalenceSeedWorkloads(t *testing.T) {
	configs := []resolve.Config{
		{Utility: resolve.QValue{}, Learning: resolve.LearnEP},
		{Utility: resolve.RO{}, Learning: resolve.LearnEP},
		{Utility: resolve.General{}, Learning: resolve.LearnEP},
		{Utility: resolve.General{}, Learning: resolve.LearnOffline},
	}
	for _, ld := range seedWorkloads(t, seedScale) {
		for _, cfg := range configs {
			cfg.Trees = seedScale.Trees
			name := ld.name + "/" + cfg.Name()
			t.Run(name, func(t *testing.T) { checkSeedPaths(t, name, ld.w, cfg) })
		}
	}
}

// BenchmarkShardStepPath measures per-probe wall time on the seed
// workloads, the one-shard scan ("monolithic") versus production's shard
// per component at 1/2/4/8 shard workers — the speedup curves
// results/BENCH_shard.json records. The Q-Value+EP configuration keeps the
// Learner version stable and every round's score kind cacheable, so
// untouched shards serve whole rounds from cached winners and per-probe
// cost tracks the probed component's size rather than the workset's; the
// one shard rebuilds its candidate scan over the whole workset every
// round.
func BenchmarkShardStepPath(b *testing.B) {
	sc := bench.Scale{TPCHSF: 0.01, NELLAthletes: 500, InitialProbes: 80, Trees: 5, Reps: 1}
	modes := []struct {
		name   string
		shards int
		hook   func(*resolve.Session)
	}{
		{"monolithic", 0, resolve.UseOneShard},
		{"shards-1", 1, nil},
		{"shards-2", 2, nil},
		{"shards-4", 4, nil},
		{"shards-8", 8, nil},
	}

	for _, ld := range seedWorkloads(b, sc) {
		w := ld.w
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%s", ld.name, mode.name), func(b *testing.B) {
				cfg := resolve.Config{Utility: resolve.QValue{}, Learning: resolve.LearnEP, Trees: sc.Trees, Seed: 23,
					Parallel: resolve.Parallelism{Shards: mode.shards}}
				// Session construction (EP calibration, cache and shard
				// builds) happens outside the timer: the step path is
				// what sharding changes, so that is what gets measured.
				var steps int
				var inLoop time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					repo := w.Repository(sc.InitialProbes, stats.SubSeed(23, 11))
					sess, err := resolve.NewSession(w.DB, w.Result, w.Oracle(), repo, cfg)
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
}

// BenchmarkResolveStepPath measures the per-step resolve path — probe
// selection (probabilities, utility, selector) plus answer simplification
// — through the full per-round recompute oracle ("full") and production's
// incremental shard caches ("incremental"), on the large TPC-H-like
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
	cfg := resolve.Config{Utility: resolve.General{}, Learning: resolve.LearnEP, Seed: 7}
	nsPerStep := make(map[string]float64)
	var steps int
	for _, mode := range []struct {
		name string
		hook func(*resolve.Session)
	}{
		{"full", resolve.UseFullRecompute},
		{"incremental", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repo := w.Repository(0, stats.SubSeed(7, 11))
				sess, err := resolve.NewSession(w.DB, w.Result, w.Oracle(), repo, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if mode.hook != nil {
					mode.hook(sess)
				}
				out, err := sess.Run()
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
	bench.AppendTrajectory(b, filepath.Join("..", "..", "results", "BENCH_resolve.json"), point)
}
