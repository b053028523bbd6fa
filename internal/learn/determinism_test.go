package learn

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomDataset builds a dataset of n rows over nf categorical features
// with the given cardinality, labeled by a noisy hidden rule so trees have
// real structure to find.
func randomDataset(n, nf int, card int32, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := make([]int32, nf)
		for f := range x {
			x[f] = int32(rng.Intn(int(card)))
			if rng.Intn(20) == 0 {
				x[f] = Unknown // exercise the Unknown → counts[0] path
			}
		}
		y := x[0]%2 == 0
		if nf > 1 && x[1] < card/3 {
			y = !y
		}
		if rng.Float64() < 0.1 {
			y = !y
		}
		d.Add(x, y)
	}
	return d
}

// workerCounts is the table every determinism test sweeps: serial, a small
// pool, and a pool far larger than the machine's single CPU.
var workerCounts = []int{1, 2, 8}

func TestFitForestBitIdenticalAcrossWorkers(t *testing.T) {
	d := randomDataset(300, 6, 9, 1)
	base := FitForest(d, ForestConfig{Trees: 24, Seed: 7, Workers: 1})
	for _, w := range workerCounts[1:] {
		f := FitForest(d, ForestConfig{Trees: 24, Seed: 7, Workers: w})
		if !reflect.DeepEqual(base.trees, f.trees) {
			t.Fatalf("Workers=%d forest differs from serial", w)
		}
	}
	// Workers=0 (one per CPU) must also match.
	f := FitForest(d, ForestConfig{Trees: 24, Seed: 7})
	if !reflect.DeepEqual(base.trees, f.trees) {
		t.Fatal("Workers=0 forest differs from serial")
	}
}

func TestFitRegForestBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := &RegDataset{}
	for i := 0; i < 250; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		d.Add(x, 2*x[0]-x[2]+0.1*rng.NormFloat64())
	}
	base := FitRegForest(d, RegForestConfig{Trees: 20, MaxDepth: 6, Seed: 11, Workers: 1})
	for _, w := range workerCounts[1:] {
		f := FitRegForest(d, RegForestConfig{Trees: 20, MaxDepth: 6, Seed: 11, Workers: w})
		if !reflect.DeepEqual(base.trees, f.trees) {
			t.Fatalf("Workers=%d regression forest differs from serial", w)
		}
	}
}

func TestTrainLALBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("LAL training is seconds-scale")
	}
	cfg := LALConfig{Tasks: 6, CandidatesPerState: 3, Seed: 5}
	cfg.Workers = 1
	base := TrainLAL(cfg)
	for _, w := range workerCounts[1:] {
		cfg.Workers = w
		l := TrainLAL(cfg)
		if !reflect.DeepEqual(base.reg.trees, l.reg.trees) {
			t.Fatalf("Workers=%d LAL regressor differs from serial", w)
		}
	}
}

// TestBestSplitMatchesReference checks the sort-free split search against
// the retained map-based reference on many random node samples, with and
// without repeated rows: same feature, same code, same gain, bit for bit.
func TestBestSplitMatchesReference(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		d := randomDataset(120, 5, 7, int64(trial))
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = i
		}
		if trial%2 == 1 {
			rng := rand.New(rand.NewSource(int64(-trial)))
			for i := range idx {
				idx[i] = rng.Intn(d.Len())
			}
		}
		c := newColumns(d)
		sc := newTreeScratch(c)
		for _, i := range idx {
			sc.draws[i]++
		}
		rows, n, pos := sc.fold(c)
		cfg := TreeConfig{FeatureSample: 3}
		// Identical RNG streams so both searches shuffle the same feature
		// subset.
		s := sc.bestSplit(c, rows, n, pos, cfg, rand.New(rand.NewSource(int64(trial))))
		f2, c2, g2 := bestSplitReference(d, idx, cfg, rand.New(rand.NewSource(int64(trial))))
		if s.feature != f2 || s.code-1 != c2 || s.gain != g2 {
			t.Fatalf("trial %d: split (%d,%d,%v) != reference (%d,%d,%v)",
				trial, s.feature, s.code-1, s.gain, f2, c2, g2)
		}
	}
}

// TestFitTreeMatchesReference checks full-tree equivalence: induced from
// the same indices and RNG stream, the production and reference inductions
// build identical node arrays.
func TestFitTreeMatchesReference(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(200, 6, 8, int64(100+trial))
		rng := rand.New(rand.NewSource(int64(trial)))
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = rng.Intn(d.Len())
		}
		cfg := TreeConfig{FeatureSample: 3, MinLeaf: 2}
		t1 := fitTree(d, idx, cfg, rand.New(rand.NewSource(int64(trial))))
		t2 := fitTreeReference(d, append([]int(nil), idx...), cfg, rand.New(rand.NewSource(int64(trial))))
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("trial %d: optimized tree differs from reference", trial)
		}
	}
}

// entityDataset has the shape of an encoded TPC-H repository: one
// near-unique feature (the entity) beside low-cardinality ones, so
// bootstraps repeat rows and most entity codes are seen once per node.
func entityDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := []int32{
			int32(rng.Intn(3)),
			int32(i - rng.Intn(2)), // mostly unique, a few repeats
			int32(rng.Intn(5)),
			int32(rng.Intn(25)),
			Unknown,
		}
		if rng.Intn(4) > 0 {
			x[4] = int32(rng.Intn(2))
		}
		y := x[0] == 1 || (x[2] < 2 && rng.Intn(3) > 0)
		d.Add(x, y)
	}
	return d
}

// TestFitForestMatchesOracle checks production FitForest against the
// reference induction run per tree on the same streams, at every worker
// count, on random shapes, the encoded TPC-H shape and non-default leaf
// and depth bounds.
func TestFitForestMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
		cfg  ForestConfig
	}{
		{"random", randomDataset(300, 6, 9, 1), ForestConfig{Trees: 24, Seed: 7}},
		{"random-wide", randomDataset(150, 10, 4, 2), ForestConfig{Trees: 12, Seed: 8}},
		{"entity", entityDataset(320, 3), ForestConfig{Trees: 25, Seed: 9}},
		{"bounded", entityDataset(200, 4), ForestConfig{Trees: 16, Seed: 10, MinLeaf: 3, MaxDepth: 5}},
	}
	for _, tc := range cases {
		for _, w := range []int{0, 1, 2, 8} {
			cfg := tc.cfg
			cfg.Workers = w
			got, want := FitForest(tc.d, cfg), fitForestOracle(tc.d, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, Workers=%d: forest differs from the oracle", tc.name, w)
			}
		}
	}
}

// FuzzFitTree compares the production induction with the reference on
// small fuzzed datasets with Unknown codes and duplicate indices.
func FuzzFitTree(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []byte{0, 0, 1, 2, 2, 3}, int64(1), uint8(0), uint8(0))
	f.Add([]byte{2, 9, 4, 4, 0, 1, 7, 3, 3, 5, 8, 2, 6, 6, 1}, []byte{5, 1, 1, 1, 4, 0, 2}, int64(7), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, cells, picks []byte, seed int64, minLeaf, maxDepth uint8) {
		if len(cells) < 2 {
			return
		}
		nf := 1 + int(cells[0]%4)
		cells = cells[1:]
		n := len(cells) / (nf + 1)
		if n == 0 || n > 64 || len(picks) > 256 {
			return
		}
		d := &Dataset{}
		for i := 0; i < n; i++ {
			row := cells[i*(nf+1) : (i+1)*(nf+1)]
			x := make([]int32, nf)
			for j := range x {
				x[j] = int32(row[j]%5) - 1 // -1 is Unknown
			}
			d.Add(x, row[nf]&1 == 1)
		}
		idx := make([]int, len(picks))
		for i, p := range picks {
			idx[i] = int(p) % n
		}
		cfg := TreeConfig{MaxDepth: int(maxDepth % 6), MinLeaf: int(minLeaf % 4), FeatureSample: int(seed&3) % (nf + 1)}
		got := fitTree(d, idx, cfg, rand.New(rand.NewSource(seed)))
		want := fitTreeReference(d, idx, cfg, rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tree differs from reference:\ngot  %v\nwant %v", got.nodes, want.nodes)
		}
	})
}

func TestProbTrueBatchMatchesScalar(t *testing.T) {
	d := randomDataset(200, 5, 6, 9)
	f := FitForest(d, ForestConfig{Trees: 15, Seed: 2, Workers: 1})
	xs := d.X[:50]
	out := f.ProbTrueBatch(xs, nil)
	for i, x := range xs {
		if want := f.ProbTrue(x); out[i] != want {
			t.Fatalf("candidate %d: batch %v != scalar %v", i, out[i], want)
		}
	}
	// Buffer reuse must not change results.
	out2 := f.ProbTrueBatch(xs, out)
	if &out2[0] != &out[0] {
		t.Error("batch did not reuse the provided buffer")
	}
	for i, x := range xs {
		if want := f.ProbTrue(x); out2[i] != want {
			t.Fatalf("reused buffer candidate %d: %v != %v", i, out2[i], want)
		}
	}
}

func TestVoteStatsBatchMatchesScalar(t *testing.T) {
	d := randomDataset(200, 5, 6, 13)
	f := FitForest(d, ForestConfig{Trees: 15, Seed: 4, Workers: 1})
	xs := d.X[:40]
	means, variances := f.VoteStatsBatch(xs, nil, nil)
	for i, x := range xs {
		m, v := f.VoteStats(x)
		if means[i] != m || variances[i] != v {
			t.Fatalf("candidate %d: batch (%v,%v) != scalar (%v,%v)",
				i, means[i], variances[i], m, v)
		}
	}
}

func TestLALScoreBatchMatchesScalar(t *testing.T) {
	d := randomDataset(200, 5, 6, 17)
	f := FitForest(d, ForestConfig{Trees: 15, Seed: 6, Workers: 1})
	l := TrainLAL(LALConfig{Tasks: 3, CandidatesPerState: 2, Seed: 8, Workers: 1})
	xs := d.X[:40]
	out := l.ScoreBatch(f, d.Len(), d.PositiveFraction(), xs, nil)
	for i, x := range xs {
		if want := l.Score(f, d.Len(), d.PositiveFraction(), x); out[i] != want {
			t.Fatalf("candidate %d: batch %v != scalar %v", i, out[i], want)
		}
	}
	// A nil LAL scores zero everywhere, matching Score's nil behaviour.
	var nilLAL *LAL
	zeros := nilLAL.ScoreBatch(f, d.Len(), 0.5, xs, out)
	for i := range zeros {
		if zeros[i] != 0 {
			t.Fatal("nil LAL must score 0")
		}
	}
}

// TestEncoderExtend checks that extending an encoder record by record
// reproduces NewEncoder over the same records, that extension leaves the
// original encoder untouched, that covered records return the same
// encoder, and that a new attribute name refuses to extend.
func TestEncoderExtend(t *testing.T) {
	metas := []map[string]string{
		{"source": "a.com", "rel": "acq"},
		{"source": "b.com", "rel": "roles"},
		{"source": "a.com"},
		{"source": "c.com", "rel": "acq"},
		{"rel": "sports"},
		{"source": "d.com", "rel": "roles"},
	}
	enc := NewEncoder(metas[:2])
	for i := 2; i < len(metas); i++ {
		before := NewEncoder(metas[:i])
		next, ok := enc.Extend(metas[i : i+1])
		if !ok {
			t.Fatalf("record %d: Extend refused a known attribute set", i)
		}
		if !reflect.DeepEqual(enc, before) {
			t.Fatalf("record %d: Extend modified its receiver", i)
		}
		if want := NewEncoder(metas[:i+1]); !reflect.DeepEqual(next, want) {
			t.Fatalf("record %d: extended encoder differs from NewEncoder", i)
		}
		enc = next
	}
	// Several records at once, the Learner's per-retrain batch.
	all, ok := NewEncoder(metas[:1]).Extend(metas[1:])
	if !ok || !reflect.DeepEqual(all, NewEncoder(metas)) {
		t.Fatal("batched Extend differs from NewEncoder")
	}
	if same, ok := enc.Extend(metas[:3]); !ok || same != enc {
		t.Error("covered records must return the receiver itself")
	}
	if _, ok := enc.Extend([]map[string]string{{"category": "sports"}}); ok {
		t.Error("a new attribute name must refuse to extend")
	}
	if _, ok := enc.Extend([]map[string]string{{"source": "e.com"}, {"rel": "acq", "x": "1"}}); ok {
		t.Error("a batch with a new attribute name must refuse to extend")
	}
}
