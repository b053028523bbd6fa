package resolve

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"qres/internal/boolexpr"
)

// rescoreParallelMin is the number of variables below which the rescore
// runs serially: goroutine fan-out costs more than a few hundred float
// operations.
const rescoreParallelMin = 64

// scoreStats reports one scoring call's cache behaviour: how many
// candidate variables were actually rescored (cache misses) and how many
// kept their cached score.
type scoreStats struct {
	rescored int
	hits     int
	misses   int
}

// incState is one component shard's incremental scoring state: caches of
// probability estimates and per-variable utility aggregates that survive
// across probe-selection rounds and are reconciled against probe deltas
// instead of being rebuilt. All caches key on two invariants:
//
//   - Learner.Prob is a pure function of the variable while the Learner's
//     Version is unchanged, so probabilities (and everything derived from
//     them) stay valid until the model retrains — at which point every
//     cache is dropped wholesale. EP, KnownProbs and offline learners keep
//     one version for the whole session; online learning retrains per
//     probe, degrading gracefully to a full recompute every round.
//   - Simplification never introduces variables, so the candidate set only
//     shrinks and cache keys are maintained purely by deletions driven by
//     probeDelta.
//
// Per utility the cached aggregate is exactly the expensive part of a
// full per-round recompute, evaluated with the same helpers
// (qvalueVarScore, termWeight, termOccurrences, ...) in the same operation
// order, which is what makes incremental scores bit-identical to the
// recompute the package's tests keep as an oracle.
type incState struct {
	work    *workset
	learner *Learner
	workers int

	// exprIDs are the shard component's expression indices, ascending;
	// full-scan cache builds visit only these. Delta reconciliation needs
	// no restriction — the session routes each delta to the one shard whose
	// component it touches.
	exprIDs []int

	// ver is the Learner version the caches were built against; haveVer
	// distinguishes "version 0" from "never initialized".
	ver     uint64
	haveVer bool

	// probs caches Learner.Prob per candidate; probsComplete records that
	// it covers the whole candidate set, which then only shrinks (noteDelta
	// deletes exactly the variables leaving), so later rounds skip the
	// per-candidate miss scan entirely.
	probs         map[boolexpr.Var]float64
	probsComplete bool

	// qv caches the Q-Value Formula (1) score per candidate; qvDirty are
	// the variables whose entries must be recomputed before use.
	qv      map[boolexpr.Var]float64
	qvDirty map[boolexpr.Var]bool

	// tc caches the undecided-term occurrence count per variable (the sum
	// of the General utility's Formula (3)); tcDirty as above. Counts are
	// integers, so incremental maintenance is exact by construction.
	tc      map[boolexpr.Var]int
	tcDirty map[boolexpr.Var]bool

	// ro caches the Formula (2) term-weight structures.
	ro *roCache
}

// roCache is the incremental state of Formula (2): per-expression term
// weights, the global sorted weight multiset sizing α, and each variable's
// best (maximum) containing-term weight.
type roCache struct {
	// weights maps an undecided expression index to its per-term weights,
	// aligned with Expr.Terms().
	weights map[int][]float64
	// sorted is the ascending multiset of every undecided term's weight —
	// the input of mergedWeightStats, maintained by binary-search
	// insertion and removal instead of a full re-sort.
	sorted []float64
	// bestW is each candidate's maximum containing-term weight.
	bestW map[boolexpr.Var]float64

	dirtyExprs map[int]bool
	dirtyVars  map[boolexpr.Var]bool
}

// newIncState builds the incremental scoring state for the component shard
// over expressions exprIDs. workers bounds rescore parallelism; <= 0
// defaults to GOMAXPROCS.
func newIncState(work *workset, learner *Learner, workers int, exprIDs []int) *incState {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &incState{work: work, learner: learner, workers: workers, exprIDs: exprIDs}
}

// eachUndecided visits the shard's undecided expressions in ascending
// index order.
func (inc *incState) eachUndecided(fn func(i int, e boolexpr.Expr)) {
	for _, i := range inc.exprIDs {
		if e := inc.work.exprs[i]; !e.Decided() {
			fn(i, e)
		}
	}
}

// noteDelta reconciles the cache key sets against one probe delta, eagerly:
// the probed and dropped variables leave every cache, variables whose
// surroundings changed are marked dirty, and touched expressions are queued
// for weight refresh. Value recomputation is deferred to the next scoring
// call (lazily, so several deltas between scoring rounds — e.g. a burst of
// repository-known answers — coalesce into one reconcile pass).
func (inc *incState) noteDelta(d *probeDelta) {
	gone := func(v boolexpr.Var) {
		delete(inc.probs, v)
		delete(inc.qv, v)
		delete(inc.qvDirty, v)
		delete(inc.tc, v)
		delete(inc.tcDirty, v)
		if inc.ro != nil {
			delete(inc.ro.bestW, v)
			delete(inc.ro.dirtyVars, v)
		}
	}
	for _, u := range d.affected {
		if inc.qv != nil {
			inc.qvDirty[u] = true
		}
		if inc.tc != nil {
			inc.tcDirty[u] = true
		}
		if inc.ro != nil {
			inc.ro.dirtyVars[u] = true
		}
	}
	if inc.ro != nil {
		for _, i := range d.touched {
			inc.ro.dirtyExprs[i] = true
		}
	}
	gone(d.probed)
	for _, u := range d.dropped {
		gone(u)
	}
}

// ensureVersion drops every cache when the Learner's model has moved since
// they were built. While the version is unchanged the caches stay valid,
// because Prob is then a pure function of the variable.
func (inc *incState) ensureVersion() {
	v := inc.learner.Version()
	if inc.haveVer && v == inc.ver {
		return
	}
	inc.ver, inc.haveVer = v, true
	inc.probs, inc.probsComplete = nil, false
	inc.qv, inc.qvDirty = nil, nil
	inc.tc, inc.tcDirty = nil, nil
	inc.ro = nil
}

// candidateProbs returns the Learner's probability estimates for the
// candidates, serving unchanged variables from the cache. The returned map
// is the cache itself; callers must treat it as read-only for the round.
func (inc *incState) candidateProbs(candidates []boolexpr.Var) (probs map[boolexpr.Var]float64, hits, misses int) {
	inc.ensureVersion()
	if inc.probsComplete {
		return inc.probs, len(candidates), 0
	}
	inc.probs = make(map[boolexpr.Var]float64, len(candidates))
	vals := make([]float64, len(candidates))
	// Chunked batch prediction: each worker serves a contiguous candidate
	// range through ProbBatch (one model snapshot, batched forest
	// traversal), writing positionally into vals. The floats equal per-call
	// Prob exactly, for any worker count.
	inc.parallelChunks(len(candidates), func(lo, hi int) {
		inc.learner.ProbBatch(candidates[lo:hi], vals[lo:hi])
	})
	for i, v := range candidates {
		inc.probs[v] = vals[i]
	}
	inc.probsComplete = true
	return inc.probs, 0, len(candidates)
}

// qvalueScores maintains the per-variable Formula (1) cache and returns a
// score lookup for the selector: dirty variables are rescored (in
// parallel) with qvalueVarScore; everything else keeps its cached score.
// Returning a function instead of materializing a map keeps the
// steady-state round free of O(candidates) map construction.
func (inc *incState) qvalueScores(candidates []boolexpr.Var, probs map[boolexpr.Var]float64) (func(boolexpr.Var) float64, scoreStats) {
	var st scoreStats
	if inc.qv == nil {
		inc.qv = make(map[boolexpr.Var]float64, len(candidates))
		inc.qvDirty = make(map[boolexpr.Var]bool)
		inc.rescoreInto(candidates, func(v boolexpr.Var) float64 {
			return qvalueVarScore(inc.work, v, probs[v])
		}, inc.qv)
		st.rescored, st.misses = len(candidates), len(candidates)
	} else if len(inc.qvDirty) > 0 {
		dirty := sortedVarSet(inc.qvDirty)
		inc.rescoreInto(dirty, func(v boolexpr.Var) float64 {
			return qvalueVarScore(inc.work, v, probs[v])
		}, inc.qv)
		st.rescored, st.misses = len(dirty), len(dirty)
		inc.qvDirty = make(map[boolexpr.Var]bool)
	}
	st.hits = len(candidates) - st.misses
	qv := inc.qv
	return func(v boolexpr.Var) float64 { return qv[v] }, st
}

// generalFalseScores maintains the Formula (3) term-occurrence cache and
// derives the round's scores from it. The occurrence counts are exact
// integers, so the delta-maintained counts match a full scan bit for bit.
func (inc *incState) generalFalseScores(candidates []boolexpr.Var, probs map[boolexpr.Var]float64) (func(boolexpr.Var) float64, scoreStats) {
	var st scoreStats
	if inc.tc == nil {
		inc.tc = make(map[boolexpr.Var]int, len(candidates))
		inc.tcDirty = make(map[boolexpr.Var]bool)
		inc.eachUndecided(func(_ int, e boolexpr.Expr) {
			for _, t := range e.Terms() {
				for _, x := range t {
					inc.tc[x]++
				}
			}
		})
		st.rescored, st.misses = len(candidates), len(candidates)
	} else if len(inc.tcDirty) > 0 {
		dirty := sortedVarSet(inc.tcDirty)
		counts := make([]int, len(dirty))
		inc.parallelFill(len(dirty), func(i int) {
			counts[i] = termOccurrences(inc.work, dirty[i])
		})
		for i, v := range dirty {
			inc.tc[v] = counts[i]
		}
		st.rescored, st.misses = len(dirty), len(dirty)
		inc.tcDirty = make(map[boolexpr.Var]bool)
	}
	st.hits = len(candidates) - st.misses
	tc := inc.tc
	return func(v boolexpr.Var) float64 { return generalFalseScore(probs[v], tc[v]) }, st
}

// roReconcile maintains the Formula (2) caches: touched expressions refresh
// their term weights in the sorted multiset, dirty variables recompute
// their best containing-term weight. The round's α comes from the k-way
// merge of every shard's multiset, so the final combine is a separate
// step (roScoreFn).
func (inc *incState) roReconcile(candidates []boolexpr.Var, probs map[boolexpr.Var]float64) scoreStats {
	inc.ensureVersion()
	prob := func(v boolexpr.Var) float64 { return probs[v] }
	var st scoreStats
	if inc.ro == nil {
		c := &roCache{
			weights:    make(map[int][]float64),
			bestW:      make(map[boolexpr.Var]float64, len(candidates)),
			dirtyExprs: make(map[int]bool),
			dirtyVars:  make(map[boolexpr.Var]bool),
		}
		inc.eachUndecided(func(i int, e boolexpr.Expr) {
			terms := e.Terms()
			ws := make([]float64, len(terms))
			for ti, t := range terms {
				w := termWeight(t, prob)
				ws[ti] = w
				for _, x := range t {
					if w > c.bestW[x] {
						c.bestW[x] = w
					}
				}
			}
			c.weights[i] = ws
			c.sorted = append(c.sorted, ws...)
		})
		sort.Float64s(c.sorted)
		inc.ro = c
		st.rescored, st.misses = len(candidates), len(candidates)
	} else {
		c := inc.ro
		if len(c.dirtyExprs) > 0 {
			for i := range c.dirtyExprs {
				for _, w := range c.weights[i] {
					c.sorted = removeSortedFloat(c.sorted, w)
				}
				delete(c.weights, i)
				e := inc.work.exprs[i]
				if e.Decided() {
					continue
				}
				terms := e.Terms()
				ws := make([]float64, len(terms))
				for ti, t := range terms {
					ws[ti] = termWeight(t, prob)
					c.sorted = insertSortedFloat(c.sorted, ws[ti])
				}
				c.weights[i] = ws
			}
			c.dirtyExprs = make(map[int]bool)
		}
		if len(c.dirtyVars) > 0 {
			dirty := sortedVarSet(c.dirtyVars)
			best := make([]float64, len(dirty))
			inc.parallelFill(len(dirty), func(i int) {
				v := dirty[i]
				var b float64
				for _, ei := range inc.work.exprsWith(v) {
					ws := c.weights[ei]
					for ti, t := range inc.work.exprs[ei].Terms() {
						if t.Contains(v) && ws[ti] > b {
							b = ws[ti]
						}
					}
				}
				best[i] = b
			})
			for i, v := range dirty {
				c.bestW[v] = best[i]
			}
			st.rescored, st.misses = len(dirty), len(dirty)
			c.dirtyVars = make(map[boolexpr.Var]bool)
		}
	}
	st.hits = len(candidates) - st.misses
	return st
}

// roScoreFn is Formula (2)'s final combine, (1−π̃) + α·(W+ε), over the
// reconciled best-weight cache. α arrives as an argument so shards can
// share the globally derived value.
func (inc *incState) roScoreFn(probs map[boolexpr.Var]float64, alpha float64) func(boolexpr.Var) float64 {
	bestW := inc.ro.bestW
	return func(v boolexpr.Var) float64 { return roVarScore(probs[v], bestW[v], alpha) }
}

// rescoreInto computes fn for every variable (in parallel past the
// threshold) and writes the results into dst. Results land positionally in
// a slice first, so scheduling order never affects the outcome: the rescore
// is deterministic for any worker count.
func (inc *incState) rescoreInto(vars []boolexpr.Var, fn func(boolexpr.Var) float64, dst map[boolexpr.Var]float64) {
	vals := make([]float64, len(vars))
	inc.parallelFill(len(vars), func(i int) {
		vals[i] = fn(vars[i])
	})
	for i, v := range vars {
		dst[v] = vals[i]
	}
}

// parallelFill invokes fn(i) for i in [0, n), fanning out across the
// configured workers when n crosses the parallelism threshold. fn must
// write only to position i of its output, keeping the fill deterministic.
func (inc *incState) parallelFill(n int, fn func(i int)) {
	workers := inc.workers
	if workers > n {
		workers = n
	}
	if n < rescoreParallelMin || workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// parallelChunks invokes fn(lo, hi) over a partition of [0, n) into one
// contiguous chunk per worker, serially below the parallelism threshold.
// fn must write only into its own [lo, hi) range of any shared output, so
// the fill is deterministic for any worker count.
func (inc *incState) parallelChunks(n int, fn func(lo, hi int)) {
	workers := inc.workers
	if workers > n {
		workers = n
	}
	if n < rescoreParallelMin || workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// sortedVarSet returns the set's variables in ascending order.
func sortedVarSet(set map[boolexpr.Var]bool) []boolexpr.Var {
	out := make([]boolexpr.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// insertSortedFloat inserts x into the ascending slice by binary search.
func insertSortedFloat(xs []float64, x float64) []float64 {
	i := sort.SearchFloat64s(xs, x)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// removeSortedFloat removes one occurrence of x from the ascending slice.
// x is always present: the multiset holds exactly the weights previously
// inserted for live expressions, and term weights are recomputed with the
// same bit-identical termWeight that produced them.
func removeSortedFloat(xs []float64, x float64) []float64 {
	i := sort.SearchFloat64s(xs, x)
	return append(xs[:i], xs[i+1:]...)
}
