package resolve

import "qres/internal/boolexpr"

// roEpsilon is the ε of the paper's Formula (2): a small positive constant
// keeping α finite when the minimal term weight is 0.
const roEpsilon = 1e-6

// Utility assigns numeric scores to candidate probes, quantifying each
// probe's expected contribution towards evaluating the Boolean provenance
// expressions (paper Section 5). The three implementations recast the
// Interactive Boolean Evaluation algorithms of [28], [15]/[31] and [4] as
// score functions: for any expressions and probabilities, the probe the
// original algorithm would choose receives the highest score.
//
// The interface is closed: its unexported kind method ties every
// implementation to a score family the component shards' caches
// maintain.
type Utility interface {
	// Name is the paper's name for the function ("Q-Value", "RO",
	// "General").
	Name() string
	// NeedsCNF reports whether the function requires per-expression CNFs
	// (only Q-Value does; large expressions are then split first).
	NeedsCNF() bool
	// kind names the score family the function uses in the given
	// selection round, counted from 0 (the General utility alternates its
	// two sub-functions on it).
	kind(round int) scoreKind
}

// scoreKind names the score family a utility uses in a given round; the
// shards' winner cache is keyed on it because the General utility
// alternates families between rounds.
type scoreKind uint8

const (
	kindQValue scoreKind = iota
	kindRO
	kindGeneralFalse
	numScoreKinds
)

// QValue is the paper's Formula (1): the expected drop in the nt·nc
// product (DNF terms × CNF clauses) over all expressions containing the
// candidate. It is maximal for probes guaranteed to decide expressions —
// either count reaching 0 zeroes the product — and balances proving True
// (clauses vanish) against proving False (terms vanish). Derived from the
// Stochastic Boolean Function Evaluation analysis of Deshpande,
// Hellerstein and Kletenik [28].
type QValue struct{}

// Name implements Utility.
func (QValue) Name() string { return "Q-Value" }

// NeedsCNF implements Utility: Q-Value is the one CNF-dependent function.
func (QValue) NeedsCNF() bool { return true }

// kind implements Utility.
func (QValue) kind(int) scoreKind { return kindQValue }

// qvalueVarScore is one candidate's Formula (1) score: the expected drop
// in the nt·nc product over the undecided expressions containing v.
func qvalueVarScore(w *workset, v boolexpr.Var, p float64) float64 {
	var score float64
	for _, i := range w.exprsWith(v) {
		e, cnf := w.exprs[i], w.cnfs[i]
		nt, nc := float64(e.NumTerms()), float64(cnf.NumClauses())
		ntT, ncT, ntF, ncF := e.AssumeCounts(cnf, v)
		score += nt*nc -
			p*float64(ntT)*float64(ncT) -
			(1-p)*float64(ntF)*float64(ncF)
	}
	return score
}

// RO is the paper's Formula (2): highest for the variables least likely to
// be True inside the DNF terms most likely to be True, across all
// expressions. Such variables make progress in both directions — verifying
// the likeliest term proves an expression True; a False answer eliminates
// the variable's term. The term weight W(T) = (1/|T|)·Π π̃(x) divides the
// term's truth probability by the probes needed to evaluate it; the factor
// α = (1+ε)/(ε + min_T W(T)) guarantees that term weight dominates the
// (1−π̃) tie-breaker. Recast from Boros and Ünlüyurt's read-once algorithm
// [15] as extended to multiple expressions in [31].
type RO struct{}

// Name implements Utility.
func (RO) Name() string { return "RO" }

// NeedsCNF implements Utility.
func (RO) NeedsCNF() bool { return false }

// kind implements Utility.
func (RO) kind(int) scoreKind { return kindRO }

// weightGapTolerance is the resolution below which term weights count as
// tied when sizing α.
const weightGapTolerance = 1e-12

// termWeight is the paper's W(T) = (1/|T|)·Π π̃(x): the term's truth
// probability divided by the probes needed to evaluate it.
func termWeight(t boolexpr.Term, prob func(boolexpr.Var) float64) float64 {
	weight := 1.0
	for _, x := range t {
		weight *= prob(x)
	}
	return weight / float64(len(t))
}

// roVarScore is one candidate's Formula (2) score given its best term
// weight and the dominance factor α.
func roVarScore(p, bestWeight, alpha float64) float64 {
	return (1 - p) + alpha*(bestWeight+roEpsilon)
}

// roAlphaFromStats sizes α from the statistics of the multiset of
// undecided term weights: its minimum minW and its smallest positive gap
// between distinct weights (weights within weightGapTolerance count as
// tied). α must satisfy two dominance requirements from the paper's
// Formula (2) discussion: α·(W(T)+ε) > 1 for every term, so the weight
// summand always beats the (1−π̃) ≤ 1 tie-breaker — giving
// α ≥ (1+ε)/(ε+minW) — and, for "utility is strictly greater for variables
// occurring in terms with maximal weight" to hold, α·ΔW > 1 for every
// positive gap ΔW between distinct term weights — giving α > 1/gap for the
// smallest positive gap.
func roAlphaFromStats(minW, gap float64) float64 {
	alpha := (1 + roEpsilon) / (roEpsilon + minW)
	if gap > 0 {
		if a := (1 + roEpsilon) / gap; a > alpha {
			alpha = a
		}
	}
	return alpha
}

// General is the paper's third utility (Formulas (3) and (2) used
// alternately): one step targets proving expressions False — scoring each
// variable by the expected number of DNF terms its falsification would
// eliminate, Formula (3) — and the next targets proving them True via
// Formula (2), avoiding CNF computation entirely. Inspired by the
// alternating algorithm of Allen, Hellerstein, Kletenik and Ünlüyurt [4].
type General struct{}

// Name implements Utility.
func (General) Name() string { return "General" }

// NeedsCNF implements Utility.
func (General) NeedsCNF() bool { return false }

// kind implements Utility: Formula (3) on even rounds, Formula (2) on odd
// ones.
func (General) kind(round int) scoreKind {
	if round%2 == 1 {
		return kindRO
	}
	return kindGeneralFalse
}

// generalFalseScore is one candidate's Formula (3) score,
// (1 − π̃(v)) · Σ_φ (nt(φ) − nt(val_{v=False}(φ))), from its
// undecided-term occurrence count: the sum is exactly the number of
// undecided DNF terms containing v.
func generalFalseScore(p float64, termCount int) float64 {
	return (1 - p) * float64(termCount)
}

// termOccurrences counts the undecided DNF terms containing v — the
// per-variable form of Formula (3)'s sum, used by the incremental cache to
// rescore only the variables a probe touched. Term counts are integers, so
// the per-variable scan and a full recount agree exactly.
func termOccurrences(w *workset, v boolexpr.Var) int {
	n := 0
	for _, i := range w.exprsWith(v) {
		for _, t := range w.exprs[i].Terms() {
			if t.Contains(v) {
				n++
			}
		}
	}
	return n
}
