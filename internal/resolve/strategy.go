package resolve

import (
	"math/rand"

	"qres/internal/boolexpr"
	"qres/internal/obs"
)

// Strategy selects the next variable to probe among the candidates of the
// current round. The framework instantiations (utility × learning mode ×
// combination function) and the paper's baselines (Random, Greedy,
// LAL-only) all implement it.
type Strategy interface {
	// NeedsCNF reports whether the session must maintain CNFs.
	NeedsCNF() bool
	// next picks one of candidates; candidates is non-empty and sorted.
	next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error)
}

// randomStrategy probes variables in a random order (baseline).
type randomStrategy struct{ rng *rand.Rand }

func (randomStrategy) NeedsCNF() bool { return false }
func (r randomStrategy) next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error) {
	var v boolexpr.Var
	s.component(obs.StageSelector, &s.stats.Selector, func() {
		v = candidates[r.rng.Intn(len(candidates))]
	}, obs.Int("candidates", len(candidates)))
	return v, nil
}

// greedyStrategy probes the variable with the most occurrences in the
// (current, simplified) DNF provenance (baseline). It accounts for the
// Boolean structure but ignores probabilities.
type greedyStrategy struct{}

func (greedyStrategy) NeedsCNF() bool { return false }
func (greedyStrategy) next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error) {
	var best boolexpr.Var
	s.component(obs.StageSelector, &s.stats.Selector, func() {
		counts := make(map[boolexpr.Var]int)
		for _, e := range s.work.exprs {
			if e.Decided() {
				continue
			}
			for _, t := range e.Terms() {
				for _, v := range t {
					counts[v]++
				}
			}
		}
		bestCount := -1
		best = candidates[0]
		for _, v := range candidates {
			if c := counts[v]; c > bestCount {
				best, bestCount = v, c
			}
		}
	}, obs.Int("candidates", len(candidates)))
	return best, nil
}

// lalOnlyStrategy ranks purely by the Learner's uncertainty-reduction
// estimate, i.e. standard active learning with no Boolean-evaluation
// signal (the paper's "LAL only" baseline, which performs poorly).
type lalOnlyStrategy struct{}

func (lalOnlyStrategy) NeedsCNF() bool { return false }
func (lalOnlyStrategy) next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error) {
	var scores []float64
	s.component(obs.StageLAL, &s.stats.LAL, func() {
		s.lalBuf = s.learner.UncertaintyBatch(candidates, s.lalBuf)
		scores = s.lalBuf
	}, obs.Int("candidates", len(candidates)))
	var best boolexpr.Var
	s.component(obs.StageSelector, &s.stats.Selector, func() {
		bestScore := -1.0
		best = candidates[0]
		for i, v := range candidates {
			if scores[i] > bestScore {
				best, bestScore = v, scores[i]
			}
		}
	})
	return best, nil
}

// utilityStrategy is a full framework instantiation: Learner probabilities
// feed a utility function, LAL scores uncertainty reduction, and the Probe
// Selector combines them with a Combine function (Steps 4.1–4.3). Its
// selection round runs over the session's component shards (shard.go).
type utilityStrategy struct {
	util    Utility
	combine Combine
}

func (u utilityStrategy) NeedsCNF() bool { return u.util.NeedsCNF() }
