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
//
// The nodes are one pointer-free array in pre-order: a node's left child
// is the next element and its right child sits at its right index.
type Tree struct {
	nodes []node
}

// node is one tree node. An inner node (feature >= 0) holds its split and,
// in val, its Gini impurity decrease weighted by the node's sample
// fraction; summed per feature that yields the mean decrease in impurity
// feature importance (Section 7.4). A leaf has feature -1 and holds its
// positive fraction in val.
type node struct {
	feature, code, right int32
	val                  float64
}

// columns is the column-major copy of a dataset that one forest fit builds
// once and every worker reads: codes[f*n+i] is row i's code of feature f
// plus one, so Unknown lands at 0 and codes index count buffers directly.
type columns struct {
	n, nf int
	codes []int32
	y     []bool
	// top is the largest shifted code, the bound of the per-code buffers.
	top int32
}

func newColumns(d *Dataset) *columns {
	n, nf := d.Len(), d.NumFeatures()
	c := &columns{n: n, nf: nf, codes: make([]int32, n*nf), y: d.Y}
	for i, row := range d.X {
		for f, code := range row {
			code++
			c.codes[f*n+i] = code
			c.top = max(c.top, code)
		}
	}
	return c
}

func (c *columns) col(f int) []int32 { return c.codes[f*c.n : (f+1)*c.n] }

// brow is one distinct row of a tree's bootstrap sample: the row, how many
// times the bootstrap drew it, and that multiplicity again when its label
// is positive (0 otherwise), so split counting reads no labels.
type brow struct{ row, n, pos int32 }

// treeScratch holds the buffers one worker reuses across the trees it
// fits: per-row bootstrap draw counts, the tree's distinct rows
// (partitioned in place during induction) and the right-side spill of
// that stable partition, dense per-code counts and the codes seen at the
// current node, the feature permutation, and the nodes of the tree under
// construction.
type treeScratch struct {
	draws  []int32
	rows   []brow
	spill  []brow
	counts []int32
	poss   []int32
	seen   []int32
	feats  []int
	nodes  []node
}

func newTreeScratch(c *columns) *treeScratch {
	return &treeScratch{
		draws:  make([]int32, c.n),
		rows:   make([]brow, 0, c.n),
		spill:  make([]brow, 0, c.n),
		counts: make([]int32, c.top+1),
		poss:   make([]int32, c.top+1),
		feats:  make([]int, c.nf),
	}
}

// fit grows the tree whose bootstrap multiplicities are in sc.draws, and
// clears them. rng drives feature subsampling; it may be nil when
// cfg.FeatureSample is 0.
func (sc *treeScratch) fit(c *columns, cfg TreeConfig, rng *rand.Rand) Tree {
	rows, n, pos := sc.fold(c)
	sc.nodes = sc.nodes[:0]
	sc.grow(c, rows, n, pos, cfg, rng, 0, float64(n))
	return Tree{nodes: slices.Clone(sc.nodes)}
}

// fold turns the multiplicities in sc.draws into the bootstrap's distinct
// rows in ascending order, clearing the draws, and returns them with the
// sample's weighted size and positive count.
func (sc *treeScratch) fold(c *columns) (rows []brow, n, pos int) {
	rows = sc.rows[:0]
	for r, m := range sc.draws {
		if m == 0 {
			continue
		}
		b := brow{row: int32(r), n: m}
		if c.y[r] {
			b.pos = m
		}
		rows = append(rows, b)
		n += int(m)
		pos += int(b.pos)
		sc.draws[r] = 0
	}
	return rows, n, pos
}

// grow appends the subtree over rows, whose weighted size and positive
// count are n and pos, to sc.nodes in pre-order. rows is partitioned in
// place (stably, left block then right block).
func (sc *treeScratch) grow(c *columns, rows []brow, n, pos int, cfg TreeConfig, rng *rand.Rand, depth int, total float64) {
	at := len(sc.nodes)
	sc.nodes = append(sc.nodes, node{feature: -1, val: float64(pos) / float64(n)})
	if pos == 0 || pos == n ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) ||
		n < 2*cfg.minLeaf() {
		return
	}
	s := sc.bestSplit(c, rows, n, pos, cfg, rng)
	if s.feature < 0 || s.n < cfg.minLeaf() || n-s.n < cfg.minLeaf() {
		return
	}

	col := c.col(s.feature)
	spill := sc.spill[:0]
	k := 0
	for _, b := range rows {
		if col[b.row] == s.code {
			rows[k] = b
			k++
		} else {
			spill = append(spill, b)
		}
	}
	copy(rows[k:], spill)

	sc.nodes[at] = node{feature: int32(s.feature), code: s.code - 1, val: s.gain * float64(n) / total}
	sc.grow(c, rows[:k], s.n, s.pos, cfg, rng, depth+1, total)
	sc.nodes[at].right = int32(len(sc.nodes))
	sc.grow(c, rows[k:], n-s.n, pos-s.pos, cfg, rng, depth+1, total)
}

// gini computes the Gini impurity of a (pos, n) class count.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// split is an equality split (feature, shifted code) with its Gini
// impurity decrease and the weighted size and positive count of its left
// side, which become the left child's (n, pos).
type split struct {
	feature int
	code    int32
	gain    float64
	n, pos  int
}

// bestSplit searches for the (feature, code) equality split maximizing
// Gini impurity decrease over the node sample. With FeatureSample > 0 it
// examines a random feature subset (sampling without replacement), the
// random-forest decorrelation mechanism.
//
// Codes are visited in the order the node's rows first show them. Within
// a feature the highest gain wins and equal gains go to the lowest code;
// across features a later feature must beat the best so far strictly.
// That is the split an ascending scan of every feature's codes with a
// strict > picks, so training is reproducible under a fixed seed without
// sorting the codes. TestBestSplitMatchesReference checks it against the
// map-based reference kept in the package's tests.
func (sc *treeScratch) bestSplit(c *columns, rows []brow, n, pos int, cfg TreeConfig, rng *rand.Rand) split {
	features := sc.feats[:c.nf]
	for i := range features {
		features[i] = i
	}
	if cfg.FeatureSample > 0 && cfg.FeatureSample < c.nf && rng != nil {
		rng.Shuffle(c.nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.FeatureSample]
	}

	parent := gini(pos, n)
	best := split{feature: -1}
	for _, f := range features {
		col := c.col(f)
		seen := sc.seen[:0]
		for _, b := range rows {
			code := col[b.row]
			if sc.counts[code] == 0 {
				seen = append(seen, code)
			}
			sc.counts[code] += b.n
			sc.poss[code] += b.pos
		}
		if len(seen) >= 2 {
			for _, code := range seen {
				nl, pl := int(sc.counts[code]), int(sc.poss[code])
				nr, pr := n-nl, pos-pl
				w := parent -
					(float64(nl)*gini(pl, nl)+float64(nr)*gini(pr, nr))/float64(n)
				if w > best.gain || (w == best.gain && best.feature == f && code < best.code) {
					best = split{feature: f, code: code, gain: w, n: nl, pos: pl}
				}
			}
		}
		for _, code := range seen {
			sc.counts[code], sc.poss[code] = 0, 0
		}
		sc.seen = seen[:0]
	}
	return best
}

// ProbTrue returns the positive-class probability the tree assigns to x.
// Each node is copied whole, so its right index loads together with the
// test's operands instead of after the test.
func (t *Tree) ProbTrue(x []int32) float64 {
	nodes := t.nodes
	nd := nodes[0]
	i := 0
	for nd.feature >= 0 {
		if x[nd.feature] == nd.code {
			i++
		} else {
			i = int(nd.right)
		}
		nd = nodes[i]
	}
	return nd.val
}

// Predict returns the majority-class prediction for x.
func (t *Tree) Predict(x []int32) bool { return t.ProbTrue(x) >= 0.5 }

// accumulateImportance adds each split's weighted impurity decrease to
// imp[feature], in pre-order.
func (t *Tree) accumulateImportance(imp []float64) {
	for _, nd := range t.nodes {
		if nd.feature >= 0 {
			imp[nd.feature] += nd.val
		}
	}
}
