package learn

import (
	"math/rand"
	"slices"
)

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of examples per leaf (default 1).
	MinLeaf int
	// FeatureSample is the number of features considered per split; 0
	// means all features. Random forests pass ~√d.
	FeatureSample int
}

func (c TreeConfig) minLeaf() int {
	if c.MinLeaf <= 0 {
		return 1
	}
	return c.MinLeaf
}

// Tree is a binary classification tree over categorical features. Inner
// nodes test feature equality (x[feature] == code goes left, everything
// else right), which handles high-cardinality string metadata such as
// entities and sources without an ordinal embedding. Leaves store the
// fraction of positive training examples, so a single tree is already a
// probability estimator.
type Tree struct {
	feature     int
	code        int32
	left, right *Tree
	prob        float64
	leaf        bool
	// gain is the Gini impurity decrease of this split, weighted by the
	// node sample fraction; summed per feature it yields the mean
	// decrease in impurity feature importance (Section 7.4).
	gain float64
}

// treeScratch holds the buffers one worker reuses across a sequence of
// tree fits: the bootstrap index slice (partitioned in place during
// induction), the right-side spill of the stable partition, dense
// per-code class counts (indexed code+1, so Unknown's -1 lands at 0) and
// the list of codes observed at the current node.
type treeScratch struct {
	idx    []int
	spill  []int
	counts []int
	poss   []int
	seen   []int32
	feats  []int
}

// newTreeScratch sizes a scratch for datasets with n rows, feature codes
// up to maxCode and nf features.
func newTreeScratch(n, maxCode, nf int) *treeScratch {
	return &treeScratch{
		idx:    make([]int, n),
		spill:  make([]int, 0, n),
		counts: make([]int, maxCode+2),
		poss:   make([]int, maxCode+2),
		feats:  make([]int, nf),
	}
}

// maxCode returns the largest feature code in the dataset (at least
// Unknown, i.e. -1), the sizing bound for dense per-code count buffers.
func maxCode(d *Dataset) int {
	m := int32(Unknown)
	for _, row := range d.X {
		for _, c := range row {
			if c > m {
				m = c
			}
		}
	}
	return int(m)
}

// FitTree induces a tree from the dataset rows at the given indices.
// rng drives feature subsampling; it may be nil when cfg.FeatureSample is
// 0. The dataset must be non-empty and valid. The indices slice is not
// modified.
func FitTree(d *Dataset, indices []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	if len(indices) == 0 {
		return &Tree{leaf: true, prob: 0.5}
	}
	sc := newTreeScratch(len(indices), maxCode(d), d.NumFeatures())
	idx := sc.idx[:len(indices)]
	copy(idx, indices)
	return fitNode(d, idx, cfg, rng, 0, float64(len(indices)), sc)
}

// fitNode recursively induces the subtree over idx. idx is partitioned in
// place (stably, left block then right block), so the caller's slice must
// be owned by this fit.
func fitNode(d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand, depth int, total float64, sc *treeScratch) *Tree {
	pos := 0
	for _, i := range idx {
		if d.Y[i] {
			pos++
		}
	}
	prob := float64(pos) / float64(len(idx))
	if pos == 0 || pos == len(idx) ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) ||
		len(idx) < 2*cfg.minLeaf() {
		return &Tree{leaf: true, prob: prob}
	}

	feature, code, gain := bestSplit(d, idx, cfg, rng, pos, sc)
	if feature < 0 {
		return &Tree{leaf: true, prob: prob}
	}

	// Stable in-place partition: matching rows compact to the front in
	// their original order, the rest spill and are copied back behind
	// them, so the recursion sees exactly the left/right sequences an
	// append-based partition would build — without the per-node slices.
	spill := sc.spill[:0]
	k := 0
	for _, i := range idx {
		if d.X[i][feature] == code {
			idx[k] = i
			k++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[k:], spill)
	left, right := idx[:k], idx[k:]
	if len(left) < cfg.minLeaf() || len(right) < cfg.minLeaf() {
		return &Tree{leaf: true, prob: prob}
	}
	return &Tree{
		feature: feature,
		code:    code,
		gain:    gain * float64(len(idx)) / total,
		left:    fitNode(d, left, cfg, rng, depth+1, total, sc),
		right:   fitNode(d, right, cfg, rng, depth+1, total, sc),
	}
}

// gini computes the Gini impurity of a (pos, n) class count.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// bestSplit searches for the (feature, code) equality split maximizing
// Gini impurity decrease over the node sample. With FeatureSample > 0 it
// examines a random feature subset (sampling without replacement), the
// random-forest decorrelation mechanism.
//
// Counting uses the scratch's dense per-code arrays instead of a per-node
// map, and candidate codes are evaluated in ascending order (tied gains
// would otherwise pick a random winner, making training irreproducible
// under a fixed seed). The selected split is identical to the one found by
// the map-based reference implementation kept in the package's tests —
// see TestBestSplitMatchesReference.
func bestSplit(d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand, posTotal int, sc *treeScratch) (feature int, code int32, gain float64) {
	nf := d.NumFeatures()
	features := sc.feats[:nf]
	for i := range features {
		features[i] = i
	}
	if cfg.FeatureSample > 0 && cfg.FeatureSample < nf && rng != nil {
		rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.FeatureSample]
	}

	parent := gini(posTotal, len(idx))

	feature, code, gain = -1, 0, 0
	for _, f := range features {
		// Count (n, pos) per observed code at this node, tracking which
		// codes appear so only they are visited and reset.
		seen := sc.seen[:0]
		for _, i := range idx {
			c := d.X[i][f] + 1
			if sc.counts[c] == 0 {
				seen = append(seen, c)
			}
			sc.counts[c]++
			if d.Y[i] {
				sc.poss[c]++
			}
		}
		if len(seen) >= 2 {
			slices.Sort(seen)
			for _, c := range seen {
				nl, pl := sc.counts[c], sc.poss[c]
				nr, pr := len(idx)-nl, posTotal-pl
				w := parent -
					(float64(nl)*gini(pl, nl)+float64(nr)*gini(pr, nr))/float64(len(idx))
				if w > gain {
					feature, code, gain = f, c-1, w
				}
			}
		}
		for _, c := range seen {
			sc.counts[c], sc.poss[c] = 0, 0
		}
		sc.seen = seen[:0]
	}
	return feature, code, gain
}

// ProbTrue returns the positive-class probability the tree assigns to x.
func (t *Tree) ProbTrue(x []int32) float64 {
	node := t
	for !node.leaf {
		if x[node.feature] == node.code {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.prob
}

// Predict returns the majority-class prediction for x.
func (t *Tree) Predict(x []int32) bool { return t.ProbTrue(x) >= 0.5 }

// Depth returns the depth of the tree (0 for a single leaf).
func (t *Tree) Depth() int {
	if t.leaf {
		return 0
	}
	l, r := t.left.Depth(), t.right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// accumulateImportance adds each split's weighted impurity decrease to
// imp[feature].
func (t *Tree) accumulateImportance(imp []float64) {
	if t.leaf {
		return
	}
	imp[t.feature] += t.gain
	t.left.accumulateImportance(imp)
	t.right.accumulateImportance(imp)
}
