package learn

import (
	"math"
	"math/rand"
	"sort"
)

// This file preserves the pre-parallel forest-training implementation —
// one shared sequential RNG, map-based split counting over sorted codes,
// per-node slice allocation — as it shipped before the parallel,
// warm-started substrate; only its trees are laid out in the production
// node array. It exists for two reasons: BenchmarkForestFit and
// BenchmarkRetrain measure the optimized path against it (the speedups in
// results/BENCH_learn.json are new-vs-this), and the equivalence tests
// use its induction as an independent oracle for the production one
// (fitForestOracle, fitTree). It is test code: production never trains
// with it.

// FitForestReference trains a forest with the reference (pre-optimization)
// loop. Because the reference draws every tree's randomness from one
// shared sequential RNG, its ensembles differ from FitForest's per-tree
// streams; it is a cost baseline, not a model-equivalence target.
func FitForestReference(d *Dataset, cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	f := &Forest{nf: d.NumFeatures(), cfg: cfg}
	if d.Len() == 0 {
		return f
	}
	featSample := int(math.Ceil(math.Sqrt(float64(d.NumFeatures()))))
	rng := rand.New(rand.NewSource(cfg.Seed))
	for t := 0; t < cfg.Trees; t++ {
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = rng.Intn(d.Len())
		}
		tree := fitTreeReference(d, idx, TreeConfig{
			MaxDepth:      cfg.MaxDepth,
			MinLeaf:       cfg.MinLeaf,
			FeatureSample: featSample,
		}, rng)
		f.trees = append(f.trees, *tree)
	}
	return f
}

// fitTreeReference is the reference tree induction entry point. It lays
// the tree out in the production node array (pre-order, left child next)
// so the two inductions compare with reflect.DeepEqual.
func fitTreeReference(d *Dataset, indices []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	if len(indices) == 0 {
		return leafTree(0.5)
	}
	t := &Tree{}
	fitNodeReference(t, d, indices, cfg, rng, 0, float64(len(indices)))
	return t
}

// leafTree is the single-leaf tree with positive fraction p.
func leafTree(p float64) *Tree { return &Tree{nodes: []node{{feature: -1, val: p}}} }

func fitNodeReference(t *Tree, d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand, depth int, total float64) {
	pos := 0
	for _, i := range idx {
		if d.Y[i] {
			pos++
		}
	}
	leaf := node{feature: -1, val: float64(pos) / float64(len(idx))}
	if pos == 0 || pos == len(idx) ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) ||
		len(idx) < 2*cfg.minLeaf() {
		t.nodes = append(t.nodes, leaf)
		return
	}

	feature, code, gain := bestSplitReference(d, idx, cfg, rng)
	if feature < 0 {
		t.nodes = append(t.nodes, leaf)
		return
	}

	var left, right []int
	for _, i := range idx {
		if d.X[i][feature] == code {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.minLeaf() || len(right) < cfg.minLeaf() {
		t.nodes = append(t.nodes, leaf)
		return
	}
	at := len(t.nodes)
	t.nodes = append(t.nodes, node{
		feature: int32(feature),
		code:    code,
		val:     gain * float64(len(idx)) / total,
	})
	fitNodeReference(t, d, left, cfg, rng, depth+1, total)
	t.nodes[at].right = int32(len(t.nodes))
	fitNodeReference(t, d, right, cfg, rng, depth+1, total)
}

// bestSplitReference is the map-counting split search the dense bestSplit
// replaced; both must select the same (feature, code, gain).
func bestSplitReference(d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) (feature int, code int32, gain float64) {
	nf := d.NumFeatures()
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if cfg.FeatureSample > 0 && cfg.FeatureSample < nf && rng != nil {
		rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.FeatureSample]
	}

	posTotal := 0
	for _, i := range idx {
		if d.Y[i] {
			posTotal++
		}
	}
	parent := gini(posTotal, len(idx))

	feature, code, gain = -1, 0, 0
	for _, f := range features {
		type counts struct{ n, pos int }
		byCode := make(map[int32]*counts)
		for _, i := range idx {
			c := d.X[i][f]
			ct := byCode[c]
			if ct == nil {
				ct = &counts{}
				byCode[c] = ct
			}
			ct.n++
			if d.Y[i] {
				ct.pos++
			}
		}
		if len(byCode) < 2 {
			continue
		}
		codes := make([]int32, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		for _, c := range codes {
			ct := byCode[c]
			nl, pl := ct.n, ct.pos
			nr, pr := len(idx)-nl, posTotal-pl
			w := parent -
				(float64(nl)*gini(pl, nl)+float64(nr)*gini(pr, nr))/float64(len(idx))
			if w > gain {
				feature, code, gain = f, c, w
			}
		}
	}
	return feature, code, gain
}

// fitForestOracle is FitForest's equivalence oracle: the reference
// induction per tree, on the same per-tree streams — streamSeed(Seed, t),
// n draws of rng.Intn(n), then the per-node feature shuffles.
func fitForestOracle(d *Dataset, cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	f := &Forest{nf: d.NumFeatures(), cfg: cfg}
	if d.Len() == 0 {
		return f
	}
	featSample := int(math.Ceil(math.Sqrt(float64(d.NumFeatures()))))
	tcfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, FeatureSample: featSample}
	n := d.Len()
	f.trees = make([]Tree, cfg.Trees)
	for t := range f.trees {
		rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, t)))
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		f.trees[t] = *fitTreeReference(d, idx, tcfg, rng)
	}
	return f
}

// fitTree induces a tree with the production builder from the dataset
// rows at the given indices, duplicates allowed. rng drives feature
// subsampling; it may be nil when cfg.FeatureSample is 0.
func fitTree(d *Dataset, indices []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	if len(indices) == 0 {
		return leafTree(0.5)
	}
	c := newColumns(d)
	sc := newTreeScratch(c)
	for _, i := range indices {
		sc.draws[i]++
	}
	t := sc.fit(c, cfg, rng)
	return &t
}

// depth returns the depth of the subtree rooted at node i (0 for a leaf).
func (t *Tree) depth(i int) int {
	nd := t.nodes[i]
	if nd.feature < 0 {
		return 0
	}
	return 1 + max(t.depth(i+1), t.depth(int(nd.right)))
}
