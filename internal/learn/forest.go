package learn

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qres/internal/obs"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size; the paper uses 100 by default.
	Trees int
	// MaxDepth bounds individual trees; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum examples per leaf.
	MinLeaf int
	// Seed makes training deterministic.
	Seed int64
	// Workers bounds tree-level training parallelism: 0 defaults to one
	// worker per CPU, 1 forces serial training. The trained ensemble is
	// bit-identical for every value — each tree consumes its own RNG
	// stream derived from (Seed, tree index) and lands positionally in
	// the ensemble, so scheduling never influences the model.
	Workers int
	// Obs, when non-nil, receives a forest_fit span per training run.
	Obs *obs.Obs
}

// Forest is a random-forest binary classifier with the standard
// probability generalization the paper relies on (Section 4): "considering
// each tree as a 'vote' for the class it assigns ... and using the
// percentage of votes as the probability".
type Forest struct {
	trees []*Tree
	nf    int
	cfg   ForestConfig
}

// FitForest trains a forest on d: each tree sees a bootstrap sample of the
// rows and √d-feature subsampling per split. Training is deterministic in
// cfg.Seed for any cfg.Workers value. An empty dataset yields a forest
// that predicts 0.5 everywhere.
func FitForest(d *Dataset, cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	start := time.Now()
	f := &Forest{nf: d.NumFeatures(), cfg: cfg}
	if d.Len() == 0 {
		return f
	}
	featSample := int(math.Ceil(math.Sqrt(float64(d.NumFeatures()))))
	tcfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, FeatureSample: featSample}
	n, mc, nf := d.Len(), maxCode(d), d.NumFeatures()
	f.trees = make([]*Tree, cfg.Trees)

	// fitOne trains tree t from its own deterministic RNG stream into a
	// worker-owned scratch (bootstrap indices and split-count buffers are
	// pooled across the worker's trees) and writes it positionally.
	fitOne := func(sc *treeScratch, t int) {
		rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, t)))
		idx := sc.idx[:n]
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		f.trees[t] = fitNode(d, idx, tcfg, rng, 0, float64(n), sc)
	}

	workers := EffectiveWorkers(cfg.Workers)
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	if workers <= 1 {
		sc := newTreeScratch(n, mc, nf)
		for t := 0; t < cfg.Trees; t++ {
			fitOne(sc, t)
		}
	} else {
		var next int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := newTreeScratch(n, mc, nf)
				for {
					t := int(atomic.AddInt64(&next, 1))
					if t >= cfg.Trees {
						return
					}
					fitOne(sc, t)
				}
			}()
		}
		wg.Wait()
	}
	cfg.Obs.Emit(obs.StageForestFit, -1, start, time.Since(start),
		obs.Int("trees", cfg.Trees), obs.Int("examples", d.Len()),
		obs.Int("features", d.NumFeatures()), obs.Int("workers", workers))
	return f
}

// NumTrees returns the ensemble size (0 before training on data).
func (f *Forest) NumTrees() int { return len(f.trees) }

// ProbTrue estimates P(correct | x) as the fraction of trees voting True.
func (f *Forest) ProbTrue(x []int32) float64 {
	if len(f.trees) == 0 {
		return 0.5
	}
	votes := 0
	for _, t := range f.trees {
		if t.Predict(x) {
			votes++
		}
	}
	return float64(votes) / float64(len(f.trees))
}

// ProbTrueBatch estimates P(correct | x) for every vector in xs, writing
// into out (reused when it has capacity, so steady-state callers allocate
// nothing per candidate). Trees traverse in the outer loop, so each
// tree's nodes stay hot across the whole batch. Results equal per-call
// ProbTrue bit for bit: votes are small integers, exact in float64.
func (f *Forest) ProbTrueBatch(xs [][]int32, out []float64) []float64 {
	out = sizedFloats(out, len(xs))
	if len(f.trees) == 0 {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i := range out {
		out[i] = 0
	}
	for _, t := range f.trees {
		for i, x := range xs {
			if t.Predict(x) {
				out[i]++
			}
		}
	}
	n := float64(len(f.trees))
	for i := range out {
		out[i] /= n
	}
	return out
}

// VoteStats returns the mean and variance of the per-tree soft
// probabilities for x. The variance is a disagreement measure LAL uses as
// a learning-state feature.
func (f *Forest) VoteStats(x []int32) (mean, variance float64) {
	if len(f.trees) == 0 {
		return 0.5, 0
	}
	var sum, sq float64
	for _, t := range f.trees {
		p := t.ProbTrue(x)
		sum += p
		sq += p * p
	}
	n := float64(len(f.trees))
	mean = sum / n
	variance = sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// VoteStatsBatch computes VoteStats for every vector in xs, accumulating
// into the reusable means/variances buffers (grown only when capacity is
// short). Per-candidate accumulation follows tree order, so the returned
// floats equal per-call VoteStats exactly.
func (f *Forest) VoteStatsBatch(xs [][]int32, means, variances []float64) (m, v []float64) {
	means = sizedFloats(means, len(xs))
	variances = sizedFloats(variances, len(xs))
	if len(f.trees) == 0 {
		for i := range means {
			means[i], variances[i] = 0.5, 0
		}
		return means, variances
	}
	for i := range means {
		means[i], variances[i] = 0, 0
	}
	for _, t := range f.trees {
		for i, x := range xs {
			p := t.ProbTrue(x)
			means[i] += p
			variances[i] += p * p
		}
	}
	n := float64(len(f.trees))
	for i := range means {
		mean := means[i] / n
		va := variances[i]/n - mean*mean
		if va < 0 {
			va = 0
		}
		means[i], variances[i] = mean, va
	}
	return means, variances
}

// sizedFloats returns buf resliced to n, reallocating only when capacity
// is insufficient.
func sizedFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Predict returns the majority-vote class for x.
func (f *Forest) Predict(x []int32) bool { return f.ProbTrue(x) >= 0.5 }

// FeatureImportances returns the normalized mean decrease in impurity per
// feature (summing to 1 when any split exists), the statistic the paper's
// Section 7.4 feature-importance analysis reports.
func (f *Forest) FeatureImportances() []float64 {
	imp := make([]float64, f.nf)
	for _, t := range f.trees {
		t.accumulateImportance(imp)
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// Accuracy evaluates classification accuracy on a labeled dataset.
func (f *Forest) Accuracy(d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	for i, x := range d.X {
		if f.Predict(x) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}
