package store

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/resolve"
)

// Benchmarks behind results/BENCH_store.json: restart time after a crash
// at 10k/100k (and, with QRES_BENCH_BIG=1, 1M) total probes, and the
// durable answer path's latency distribution under concurrent writers —
// the pinned flat control (flat_test.go: per-append fsync, JSONL) against
// the segmented engine (group commit, binary frames, compacted snapshot).
// Reproduce with the EXPERIMENTS.md "Storage engine" recipe.

// benchVars is how many distinct variables the synthetic records cycle
// through.
const benchVars = 4096

// newBenchRegistry returns a registry with every bench variable already
// interned: both engines resolve every name on recovery, and benchRecord
// only reads the registry, so concurrent writers may call it.
func newBenchRegistry() *boolexpr.Registry {
	reg := boolexpr.NewRegistry()
	for i := 0; i < benchVars; i++ {
		benchRecord(reg, i)
	}
	return reg
}

// benchRecord builds the i-th synthetic probe record.
func benchRecord(reg *boolexpr.Registry, i int) resolve.ProbeRecord {
	return resolve.ProbeRecord{
		Var:    reg.Intern("facts[" + strconv.Itoa(i%benchVars) + "]"),
		HasVar: true,
		Meta:   map[string]string{"i": strconv.Itoa(i), "source": "bench"},
		Answer: i%3 != 0,
	}
}

// buildFlatCrashState drives n records through the flat store and leaves
// it crash-closed: no snapshot, so the next open replays the full JSONL
// WAL — the flat engine's steady state, since it only snapshots on
// graceful shutdown.
func buildFlatCrashState(b *testing.B, dir string, reg *boolexpr.Registry, n int) {
	b.Helper()
	st, _, err := openFlatStore(dir, reg.Name, func(s string) (boolexpr.Var, bool) { return reg.Lookup(s) })
	if err != nil {
		b.Fatal(err)
	}
	const batch = 1024
	recs := make([]resolve.ProbeRecord, 0, batch)
	for i := 0; i < n; i++ {
		recs = append(recs, benchRecord(reg, i))
		if len(recs) == batch || i == n-1 {
			if err := st.Update(func(ap func(...resolve.ProbeRecord) error) error { return ap(recs...) }); err != nil {
				b.Fatal(err)
			}
			recs = recs[:0]
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// buildSegmentedCrashState drives n records through the segmented store,
// folds all but the last 1% into the snapshot (what the background
// compactor maintains), and crash-closes: the next open loads the binary
// snapshot and replays only the tail.
func buildSegmentedCrashState(b *testing.B, dir string, reg *boolexpr.Registry, n int) {
	b.Helper()
	opts := Options{
		NameFn:    reg.Name,
		ResolveFn: func(s string) (boolexpr.Var, bool) { return reg.Lookup(s) },
	}
	st, repo, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	snapAt := n - n/100 // last 1% stays in the WAL tail
	const batch = 1024
	recs := make([]resolve.ProbeRecord, 0, batch)
	flush := func() {
		if len(recs) == 0 {
			return
		}
		batchRecs := recs
		err := st.Update(func(ap func(...resolve.ProbeRecord) error) error {
			for _, r := range batchRecs {
				repo.AddVar(r.Var, r.Meta, r.Answer)
			}
			return ap(batchRecs...)
		})
		if err != nil {
			b.Fatal(err)
		}
		recs = recs[:0]
	}
	for i := 0; i < n; i++ {
		recs = append(recs, benchRecord(reg, i))
		if len(recs) == batch || i == n-1 || i == snapAt-1 {
			flush()
		}
		if i == snapAt-1 {
			if err := st.Snapshot(repo); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchSizes returns the probe counts to benchmark; the 1M point only runs
// when QRES_BENCH_BIG=1 (it builds ~100MB state and is far too slow for
// the CI bench-smoke step).
func benchSizes() []int {
	sizes := []int{10_000, 100_000}
	if os.Getenv("QRES_BENCH_BIG") == "1" {
		sizes = append(sizes, 1_000_000)
	}
	return sizes
}

func BenchmarkStoreRecovery(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("engine=flat/probes=%d", n), func(b *testing.B) {
			reg := newBenchRegistry()
			dir := b.TempDir()
			buildFlatCrashState(b, dir, reg, n)
			resolveFn := func(s string) (boolexpr.Var, bool) { return reg.Lookup(s) }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, repo, err := openFlatStore(dir, reg.Name, resolveFn)
				if err != nil {
					b.Fatal(err)
				}
				if repo.Len() != n {
					b.Fatalf("recovered %d records, want %d", repo.Len(), n)
				}
				b.StopTimer()
				st.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n), "tail_records")
		})
		b.Run(fmt.Sprintf("engine=segmented/probes=%d", n), func(b *testing.B) {
			reg := newBenchRegistry()
			dir := b.TempDir()
			buildSegmentedCrashState(b, dir, reg, n)
			opts := Options{
				NameFn:    reg.Name,
				ResolveFn: func(s string) (boolexpr.Var, bool) { return reg.Lookup(s) },
			}
			var tail int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, repo, err := Open(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				if repo.Len() != n {
					b.Fatalf("recovered %d records, want %d", repo.Len(), n)
				}
				tail = st.Stats().TailRecords
				b.StopTimer()
				st.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(tail), "tail_records")
		})
	}
}

// BenchmarkStoreAppend measures the durable answer path under concurrent
// writers: each op is one Update (repository add + WAL append + wait for
// durability), the per-op latency distribution is reported as p50/p99
// metrics. The flat engine pays one fsync per op inside the lock; the
// segmented engine group-commits, so concurrent ops share fsyncs.
func BenchmarkStoreAppend(b *testing.B) {
	const writers = 8
	run := func(b *testing.B, update func(i int) error) {
		latMu := sync.Mutex{}
		var lats []time.Duration
		var next int64
		b.SetParallelism(writers)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			local := make([]time.Duration, 0, 1024)
			for pb.Next() {
				latMu.Lock()
				i := int(next)
				next++
				latMu.Unlock()
				start := time.Now()
				if err := update(i); err != nil {
					b.Error(err)
					return
				}
				local = append(local, time.Since(start))
			}
			latMu.Lock()
			lats = append(lats, local...)
			latMu.Unlock()
		})
		b.StopTimer()
		if len(lats) == 0 {
			return
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p := func(q float64) float64 {
			idx := int(q * float64(len(lats)-1))
			return float64(lats[idx].Nanoseconds()) / 1e6
		}
		b.ReportMetric(p(0.50), "p50_ms")
		b.ReportMetric(p(0.99), "p99_ms")
	}

	b.Run("engine=flat", func(b *testing.B) {
		reg := newBenchRegistry()
		st, repo, err := openFlatStore(b.TempDir(), reg.Name,
			func(s string) (boolexpr.Var, bool) { return reg.Lookup(s) })
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		run(b, func(i int) error {
			rec := benchRecord(reg, i)
			return st.Update(func(ap func(...resolve.ProbeRecord) error) error {
				repo.AddVar(rec.Var, rec.Meta, rec.Answer)
				return ap(rec)
			})
		})
	})
	b.Run("engine=segmented", func(b *testing.B) {
		reg := newBenchRegistry()
		st, repo, err := Open(b.TempDir(), Options{
			NameFn:    reg.Name,
			ResolveFn: func(s string) (boolexpr.Var, bool) { return reg.Lookup(s) },
		})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		run(b, func(i int) error {
			rec := benchRecord(reg, i)
			return st.Update(func(ap func(...resolve.ProbeRecord) error) error {
				repo.AddVar(rec.Var, rec.Meta, rec.Answer)
				return ap(rec)
			})
		})
	})
}
