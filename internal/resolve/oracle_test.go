package resolve

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/obs"
)

// The selection oracles. Production selects through one component shard
// per connected component, with incremental score caches; two retired
// paths survive here to check it against:
//
//   - the full per-round recompute (fullRecompute): every round asks the
//     Learner for every candidate's probability and rescores every
//     candidate from scratch with fullScores;
//   - the monolithic incremental scan (useOneShard): the session's shards
//     rebuilt as one shard over every component.
//
// Probe choices must be bit-identical across all three.

// fullScores computes util's round scores for every candidate from
// scratch: the paper's Formulas (1)–(3) evaluated over the whole workset.
func fullScores(util Utility, w *workset, prob func(boolexpr.Var) float64, candidates []boolexpr.Var, round int) map[boolexpr.Var]float64 {
	out := make(map[boolexpr.Var]float64, len(candidates))
	switch util.kind(round) {
	case kindQValue:
		for _, v := range candidates {
			out[v] = qvalueVarScore(w, v, prob(v))
		}
	case kindRO:
		// bestTermWeight[v] = max weight of any term containing v; weights
		// collects every undecided term's weight for sizing α.
		bestTermWeight := make(map[boolexpr.Var]float64, len(candidates))
		var weights []float64
		for _, e := range w.exprs {
			if e.Decided() {
				continue
			}
			for _, t := range e.Terms() {
				weight := termWeight(t, prob)
				weights = append(weights, weight)
				for _, x := range t {
					if weight > bestTermWeight[x] {
						bestTermWeight[x] = weight
					}
				}
			}
		}
		sort.Float64s(weights)
		alpha := roAlphaFromStats(weightStatsSorted(weights))
		for _, v := range candidates {
			out[v] = roVarScore(prob(v), bestTermWeight[v], alpha)
		}
	case kindGeneralFalse:
		termCount := make(map[boolexpr.Var]int, len(candidates))
		for _, e := range w.exprs {
			if e.Decided() {
				continue
			}
			for _, t := range e.Terms() {
				for _, x := range t {
					termCount[x]++
				}
			}
		}
		for _, v := range candidates {
			out[v] = generalFalseScore(prob(v), termCount[v])
		}
	}
	return out
}

// weightStatsSorted returns the minimum of an ascending weight multiset
// and the smallest positive difference between distinct weights (0 when
// all weights tie or the set is empty): the single-multiset scan
// mergedWeightStats must reproduce.
func weightStatsSorted(weights []float64) (minW, gap float64) {
	if len(weights) == 0 {
		return 0, 0
	}
	minW = weights[0]
	for i := 1; i < len(weights); i++ {
		if d := weights[i] - weights[i-1]; d > weightGapTolerance && (gap == 0 || d < gap) {
			gap = d
		}
	}
	return minW, gap
}

// fullRecompute is the full per-round recompute strategy: Steps 4.1–4.3
// over every candidate with no cache, timed per component like the
// production round.
type fullRecompute struct {
	util    Utility
	combine Combine
}

func (r fullRecompute) NeedsCNF() bool { return r.util.NeedsCNF() }

func (r fullRecompute) next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error) {
	probs := make(map[boolexpr.Var]float64, len(candidates))
	s.component(obs.StageLearner, &s.stats.Learner, func() {
		for _, v := range candidates {
			probs[v] = s.learner.Prob(v)
		}
	})
	var scores map[boolexpr.Var]float64
	s.component(obs.StageUtility, &s.stats.Utility, func() {
		scores = fullScores(r.util, s.work, func(v boolexpr.Var) float64 { return probs[v] }, candidates, s.round)
	})
	var uncertainty []float64
	if s.learner.Mode() == LearnOnline {
		s.component(obs.StageLAL, &s.stats.LAL, func() {
			s.lalBuf = s.learner.UncertaintyBatch(candidates, s.lalBuf)
			uncertainty = s.lalBuf
		})
	}
	var best boolexpr.Var
	s.component(obs.StageSelector, &s.stats.Selector, func() {
		bestScore, first := 0.0, true
		for i, v := range candidates {
			unc := 0.0
			if uncertainty != nil {
				unc = uncertainty[i]
			}
			f := r.combine.Eval(scores[v], unc)
			if s.cfg.CostAware {
				f /= s.cost(v)
			}
			if first || f > bestScore {
				best, bestScore, first = v, f, false
			}
		}
	})
	return best, nil
}

// useFullRecompute switches a fresh framework session to the full
// per-round recompute: its shards are dropped and fullRecompute selects.
func (s *Session) useFullRecompute() {
	u := s.strategy.(utilityStrategy)
	s.strategy = fullRecompute{util: u.util, combine: u.combine}
	s.shards, s.varShard = nil, nil
}

// useOneShard rebuilds a fresh framework session's shards as one shard
// over every component: the monolithic incremental scan, whose single
// argmax is the ascending scan over all candidates.
func (s *Session) useOneShard() {
	if len(s.shards) <= 1 {
		return
	}
	var all []int
	for _, sh := range s.shards {
		all = append(all, sh.exprIDs...)
	}
	sort.Ints(all)
	s.buildShards([][]int{all})
}

// selectionRun resolves one configuration to completion: hook (nil for
// production) is applied to the fresh session, par sets its worker bounds.
// It returns the finished session and its probe sequence.
type selectionRun func(hook func(*Session), par Parallelism) (*Session, []boolexpr.Var)

// checkSelectionPaths fails unless production — at 0, 1, 2 and 8 shard
// workers, each with 0 and 4 rescore workers — and the one-shard hook pick
// the probe sequence of the full-recompute oracle and resolve the same
// rows. It returns the production session at default worker bounds.
func checkSelectionPaths(t *testing.T, name string, run selectionRun) *Session {
	t.Helper()
	ref, refProbes := run((*Session).useFullRecompute, Parallelism{})
	refRows := ref.Snapshot()
	check := func(path string, sess *Session, probes []boolexpr.Var) {
		t.Helper()
		if !reflect.DeepEqual(refProbes, probes) {
			t.Fatalf("%s: %s diverged from the full recompute\nfull: %v\ngot:  %v", name, path, refProbes, probes)
		}
		if !reflect.DeepEqual(refRows, sess.Snapshot()) {
			t.Fatalf("%s: %s resolved a different answer set", name, path)
		}
	}
	var prod *Session
	for _, rescore := range []int{0, 4} {
		sess, probes := run((*Session).useOneShard, Parallelism{Rescore: rescore})
		check(fmt.Sprintf("one shard at %d rescore workers", rescore), sess, probes)
		for _, shards := range []int{0, 1, 2, 8} {
			sess, probes := run(nil, Parallelism{Shards: shards, Rescore: rescore})
			check(fmt.Sprintf("production at %d shard and %d rescore workers", shards, rescore), sess, probes)
			if prod == nil {
				prod = sess
			}
		}
	}
	return prod
}
