package resolve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"qres/internal/boolexpr"
	"qres/internal/obs"
)

// Component-sharded probe selection, the one way a framework session
// selects its probes. The workset's connected components share no
// variables (paper Section 6), so each one is scored by its own shard — a
// per-component candidate list, incremental score cache and cached winner
// — and the Probe Selector merges the per-shard argmaxes under the global
// policy (highest combined score, ties to the smallest variable). The
// merge is exact: a scan of all candidates in ascending order keeping the
// first maximum returns the smallest variable of the global argmax set;
// that variable lives in some shard, where it is also the shard winner,
// so merging shard winners by (score desc, variable asc) returns exactly
// it. With one component the single shard's argmax is that scan. Probe
// choices are therefore independent of the component structure and of
// the shard-worker count, while wall-clock per round drops to the dirty
// shards' work: a probe delta touches exactly one component, every other
// shard's caches — and, between retrains, its winner — stay valid.

// shard is one connected component's share of probe selection.
type shard struct {
	id int
	// exprIDs are the component's expression indices into the session
	// workset, ascending.
	exprIDs []int
	// cands is the shard's ascending candidate list, maintained by probe
	// deltas exactly like the workset's global list.
	cands []boolexpr.Var
	// inc is the shard's incremental score cache, scoped to exprIDs.
	inc *incState
	// winners caches the shard's argmax per score kind. A slot is exact
	// while the shard receives no delta and the Learner does not retrain;
	// selection then skips the shard's scoring entirely.
	winners [numScoreKinds]shardWinner
	// lalBuf is the shard's reused uncertainty-score buffer.
	lalBuf []float64

	// probs/probStats/score/unc are the in-flight state of the current
	// selection round, written only by the goroutine scoring this shard.
	probs              map[boolexpr.Var]float64
	probHits, probMiss int
	scoreStat          scoreStats
	score              func(boolexpr.Var) float64
	unc                []float64
}

// shardWinner is a cached per-shard argmax: the winning variable and its
// combined selector score, tagged with the Learner version it was scored
// under.
type shardWinner struct {
	v     boolexpr.Var
	f     float64
	ver   uint64
	valid bool
}

// buildShards materializes one shard per component and the variable→shard
// index. Shard order follows the components' stable order (ascending
// smallest expression index), which the selector merge preserves.
func (s *Session) buildShards(groups [][]int) {
	s.shards = make([]*shard, len(groups))
	s.varShard = make(map[boolexpr.Var]int)
	for id, g := range groups {
		sh := &shard{id: id, exprIDs: g}
		for _, i := range g {
			for v := range s.work.exprVars[i] {
				if _, seen := s.varShard[v]; !seen {
					s.varShard[v] = id
					sh.cands = append(sh.cands, v)
				}
			}
		}
		sort.Slice(sh.cands, func(i, j int) bool { return sh.cands[i] < sh.cands[j] })
		sh.inc = newIncState(s.work, s.learner, s.cfg.Parallel.Rescore, g)
		s.shards[id] = sh
	}
	s.shardWorkers = s.cfg.Parallel.Shards
	if s.shardWorkers <= 0 {
		s.shardWorkers = runtime.GOMAXPROCS(0)
	}
}

// noteDelta reconciles the shard against one probe delta: the probed and
// dropped variables leave the candidate list, the incremental caches mark
// their dirty sets, and every cached winner is invalidated (the winner
// may have been one of the departing variables).
func (sh *shard) noteDelta(d *probeDelta) {
	sh.inc.noteDelta(d)
	sh.dropCand(d.probed)
	for _, u := range d.dropped {
		sh.dropCand(u)
	}
	for k := range sh.winners {
		sh.winners[k].valid = false
	}
}

// dropCand removes v from the shard's sorted candidate list, if present.
func (sh *shard) dropCand(v boolexpr.Var) {
	i := sort.Search(len(sh.cands), func(i int) bool { return sh.cands[i] >= v })
	if i < len(sh.cands) && sh.cands[i] == v {
		sh.cands = append(sh.cands[:i], sh.cands[i+1:]...)
	}
}

// cacheCounts tallies one selection round's cache behaviour.
type cacheCounts struct {
	probHits, probMisses   int
	scoreHits, scoreMisses int
	rescored               int
}

// countCaches adds one round's cache tallies to the session Stats and to
// the metrics registry: both are fed from here, so they cannot disagree.
func (s *Session) countCaches(c cacheCounts) {
	s.stats.ProbCacheHits += c.probHits
	s.stats.ProbCacheMisses += c.probMisses
	s.stats.ScoreCacheHits += c.scoreHits
	s.stats.ScoreCacheMisses += c.scoreMisses
	s.stats.VarsRescored += c.rescored
	s.obs.Count("prob_cache_hits", int64(c.probHits))
	s.obs.Count("prob_cache_misses", int64(c.probMisses))
	s.obs.Count("score_cache_hits", int64(c.scoreHits))
	s.obs.Count("score_cache_misses", int64(c.scoreMisses))
	s.obs.Count("vars_rescored", int64(c.rescored))
}

// next is one probe-selection round over the component shards: the
// framework sub-steps 4.1–4.3 run per shard (in parallel across up to
// Parallel.Shards workers), then the per-shard winners merge under the
// global selector policy. The shards maintain their own candidate lists,
// which together equal the session's candidates.
func (u utilityStrategy) next(s *Session, _ []boolexpr.Var) (boolexpr.Var, error) {
	kind := u.util.kind(s.round)
	ver := s.learner.Version()
	online := s.learner.Mode() == LearnOnline
	var counts cacheCounts

	// Partition the live shards: a shard whose cached winner is still
	// exact (no delta since it was scored, same model version, same score
	// family, and no per-round uncertainty term) skips scoring and serves
	// every candidate from cache. RO-family rounds always rescore live
	// shards — α couples every score to the global term-weight multiset,
	// so cached combined scores go stale even in clean shards. The scored
	// buffer is reused across rounds: in steady state only the probed
	// component rescans, and this loop must stay O(#shards) with no
	// per-round allocation or it erases the win over an O(#candidates)
	// scan of the whole workset.
	scored := s.scoredBuf[:0]
	reused, total := 0, 0
	for _, sh := range s.shards {
		if len(sh.cands) == 0 {
			continue
		}
		total += len(sh.cands)
		if w := sh.winners[kind]; kind != kindRO && !online && w.valid && w.ver == ver {
			reused++
			counts.probHits += len(sh.cands)
			counts.scoreHits += len(sh.cands)
			continue
		}
		scored = append(scored, sh)
	}
	s.scoredBuf = scored
	s.stats.ShardRoundsReused += reused

	// Sub-step 4.1a: probability estimation per shard (Learner). Estimates
	// are served from the per-version cache; only new (or
	// model-invalidated) candidates hit the classifier.
	s.component(obs.StageLearner, &s.stats.Learner, func() {
		s.forEachShard(len(scored), func(i int) {
			sh := scored[i]
			sh.probs, sh.probHits, sh.probMiss = sh.inc.candidateProbs(sh.cands)
		})
		for _, sh := range scored {
			counts.probHits += sh.probHits
			counts.probMisses += sh.probMiss
		}
	}, obs.Int("candidates", total), obs.Int("shards", len(scored)))

	// Sub-step 4.2: utility computation per shard, rescoring only the
	// variables whose surroundings changed since the shard last scored.
	// RO-family rounds split in two phases around the global α: every
	// shard first reconciles its weight cache (including decided shards
	// with unreconciled removals, whose stale weights would otherwise
	// pollute the multiset), then α derives from the k-way merged
	// per-shard multisets — whose statistics depend only on the merged
	// values — and the per-shard score closures share it.
	s.component(obs.StageUtility, &s.stats.Utility, func() {
		if kind == kindRO {
			reconcile := scored
			for _, sh := range s.shards {
				if len(sh.cands) == 0 && sh.inc.ro != nil && len(sh.inc.ro.dirtyExprs) > 0 {
					reconcile = append(reconcile, sh)
				}
			}
			s.forEachShard(len(reconcile), func(i int) {
				sh := reconcile[i]
				sh.scoreStat = sh.inc.roReconcile(sh.cands, sh.probs)
			})
			lists := make([][]float64, 0, len(s.shards))
			for _, sh := range s.shards {
				if sh.inc.ro != nil && len(sh.inc.ro.sorted) > 0 {
					lists = append(lists, sh.inc.ro.sorted)
				}
			}
			alpha := roAlphaFromStats(mergedWeightStats(lists))
			for _, sh := range scored {
				sh.score = sh.inc.roScoreFn(sh.probs, alpha)
			}
		} else {
			s.forEachShard(len(scored), func(i int) {
				sh := scored[i]
				if kind == kindQValue {
					sh.score, sh.scoreStat = sh.inc.qvalueScores(sh.cands, sh.probs)
				} else {
					sh.score, sh.scoreStat = sh.inc.generalFalseScores(sh.cands, sh.probs)
				}
			})
		}
		for _, sh := range scored {
			counts.rescored += sh.scoreStat.rescored
			counts.scoreHits += sh.scoreStat.hits
			counts.scoreMisses += sh.scoreStat.misses
		}
	}, obs.Str("utility", u.util.Name()))
	s.countCaches(counts)

	// Sub-step 4.1b: uncertainty reduction (LAL), online mode only. The
	// per-variable estimate is a pure function of the shared Learner state,
	// so per-shard batches equal one batch over every candidate.
	if online {
		s.component(obs.StageLAL, &s.stats.LAL, func() {
			s.forEachShard(len(scored), func(i int) {
				sh := scored[i]
				sh.lalBuf = s.learner.UncertaintyBatch(sh.cands, sh.lalBuf)
				sh.unc = sh.lalBuf
			})
		})
	}

	// Sub-step 4.3: per-shard argmax (ascending candidates, first maximum
	// kept), then the global merge by (combined score desc, variable asc).
	// In cost-aware mode candidates are ranked by score per unit cost (the
	// Section 9 extension).
	var best boolexpr.Var
	s.component(obs.StageSelector, &s.stats.Selector, func() {
		s.forEachShard(len(scored), func(i int) {
			sh := scored[i]
			bestScore := 0.0
			first := true
			var bv boolexpr.Var
			for ci, v := range sh.cands {
				unc := 0.0
				if sh.unc != nil {
					unc = sh.unc[ci]
				}
				f := u.combine.Eval(sh.score(v), unc)
				if s.cfg.CostAware {
					f /= s.cost(v)
				}
				if first || f > bestScore {
					bv, bestScore, first = v, f, false
				}
			}
			sh.winners[kind] = shardWinner{v: bv, f: bestScore, ver: ver, valid: true}
			sh.score, sh.unc = nil, nil
		})
		first := true
		var bestF float64
		for _, sh := range s.shards {
			if len(sh.cands) == 0 {
				continue
			}
			w := sh.winners[kind]
			if first || w.f > bestF || (w.f == bestF && w.v < best) {
				best, bestF, first = w.v, w.f, false
			}
		}
	}, obs.Int("shards_scored", len(scored)), obs.Int("shards_reused", reused))
	return best, nil
}

// forEachShard runs fn(i) for i in [0, n) across up to Parallel.Shards
// workers. fn must write only its own shard's state, which keeps every
// round deterministic for any worker count.
func (s *Session) forEachShard(n int, fn func(i int)) {
	workers := s.shardWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
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

// mergedWeightStats is weightStatsSorted over the union of ascending
// multisets, streamed through a binary min-heap of list cursors instead of
// materializing the merge. The (minW, gap) pair equals the single-multiset
// scan bit for bit: both depend only on the merged values in ascending
// order, and ties stream in some order but contribute no gap either way.
func mergedWeightStats(lists [][]float64) (minW, gap float64) {
	pos := make([]int, len(lists))
	heap := make([]int, 0, len(lists)) // list indices, min-heap by current value
	val := func(li int) float64 { return lists[li][pos[li]] }
	down := func(i int) {
		for {
			l, r, sm := 2*i+1, 2*i+2, i
			if l < len(heap) && val(heap[l]) < val(heap[sm]) {
				sm = l
			}
			if r < len(heap) && val(heap[r]) < val(heap[sm]) {
				sm = r
			}
			if sm == i {
				return
			}
			heap[i], heap[sm] = heap[sm], heap[i]
			i = sm
		}
	}
	for li := range lists {
		if len(lists[li]) > 0 {
			heap = append(heap, li)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	if len(heap) == 0 {
		return 0, 0
	}
	first := true
	var prev float64
	for len(heap) > 0 {
		li := heap[0]
		w := val(li)
		if first {
			minW, first = w, false
		} else if d := w - prev; d > weightGapTolerance && (gap == 0 || d < gap) {
			gap = d
		}
		prev = w
		pos[li]++
		if pos[li] == len(lists[li]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return minW, gap
}

// componentSignature fingerprints the workset's component structure:
// FNV-1a over each component's expression count, variable count and
// smallest variable, in the components' stable order. Sessions over the
// same query and repository state hash identically, which is what groups
// them onto one shard group in serving mode.
func componentSignature(w *workset, groups [][]int) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(len(groups)))
	for _, g := range groups {
		seen := make(map[boolexpr.Var]bool)
		minVar := boolexpr.Var(0)
		for _, i := range g {
			for v := range w.exprVars[i] {
				if !seen[v] {
					seen[v] = true
					if len(seen) == 1 || v < minVar {
						minVar = v
					}
				}
			}
		}
		put(uint64(len(g)))
		put(uint64(len(seen)))
		put(uint64(minVar))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
