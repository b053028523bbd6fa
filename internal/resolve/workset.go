package resolve

import (
	"fmt"
	"math/rand"
	"sort"

	"qres/internal/boolexpr"
)

// workset is the evolving state of Boolean evaluation: the (possibly
// split) provenance expressions simplified under all probe answers so far,
// their CNFs when the utility function needs them, and the inverted index
// from variables to the expressions they occur in. The index is built once
// at session start and maintained incrementally: each probe touches only
// the expressions that mention the probed variable, and the candidate set
// is kept as a live sorted list instead of being re-derived from scratch
// every round.
type workset struct {
	exprs  []boolexpr.Expr
	partOf []int // expression index -> original output-row index

	cnfs []boolexpr.CNF // nil when the utility reads no CNF

	exprVars []map[boolexpr.Var]bool
	varIndex map[boolexpr.Var][]int

	// occ counts, per variable, the undecided expressions containing it;
	// cands is the ascending candidate list derived from it (variables
	// with occ > 0). Both are maintained by applyProbe.
	occ   map[boolexpr.Var]int
	cands []boolexpr.Var

	undecided int
}

// newWorkset builds the working state. exprs are the provenance
// expressions after splitting; partOf aligns them with output rows. cnfs
// holds each expression's CNF, as prepareExpressions returns them, or is
// nil when the utility reads no CNF; applyProbe keeps them current.
func newWorkset(exprs []boolexpr.Expr, partOf []int, cnfs []boolexpr.CNF) *workset {
	w := &workset{
		exprs:    append([]boolexpr.Expr(nil), exprs...),
		partOf:   append([]int(nil), partOf...),
		cnfs:     append([]boolexpr.CNF(nil), cnfs...),
		varIndex: make(map[boolexpr.Var][]int),
		occ:      make(map[boolexpr.Var]int),
	}
	w.exprVars = make([]map[boolexpr.Var]bool, len(w.exprs))
	for i, e := range w.exprs {
		w.refresh(i, e)
		if !e.Decided() {
			w.undecided++
			for v := range w.exprVars[i] {
				w.occ[v]++
			}
		}
	}
	w.cands = make([]boolexpr.Var, 0, len(w.occ))
	for v := range w.occ {
		w.cands = append(w.cands, v)
	}
	sort.Slice(w.cands, func(i, j int) bool { return w.cands[i] < w.cands[j] })
	return w
}

// refresh re-derives the per-expression variable caches after expression
// i becomes (or is initialized as) e.
func (w *workset) refresh(i int, e boolexpr.Expr) {
	w.exprs[i] = e
	vars := e.Vars()
	set := make(map[boolexpr.Var]bool, len(vars))
	for _, v := range vars {
		set[v] = true
		w.varIndex[v] = appendUnique(w.varIndex[v], i)
	}
	w.exprVars[i] = set
}

func appendUnique(xs []int, x int) []int {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// done reports whether every expression is decided.
func (w *workset) done() bool { return w.undecided == 0 }

// exprsWith returns the indices of undecided expressions that still
// contain v, filtering stale index entries lazily.
func (w *workset) exprsWith(v boolexpr.Var) []int {
	idxs := w.varIndex[v]
	out := idxs[:0:0]
	for _, i := range idxs {
		if !w.exprs[i].Decided() && w.exprVars[i][v] {
			out = append(out, i)
		}
	}
	return out
}

// candidates returns the variables still occurring in undecided
// expressions, in ascending order: the candidate probes of the next
// iteration. Probing any other variable cannot advance evaluation, and
// the resolution invariant (never probe a variable that no longer matters)
// is enforced by drawing probes from this set only. The returned slice is
// a copy of the maintained list, so callers may hold it across applyProbe.
func (w *workset) candidates() []boolexpr.Var {
	return append([]boolexpr.Var(nil), w.cands...)
}

// probeDelta describes the effect of applying one probe answer: which
// expressions were re-simplified, which of those became decided, and which
// other variables had their surroundings change. It is the currency of the
// incremental hot path — score caches reconcile exactly this delta instead
// of rescoring every candidate.
type probeDelta struct {
	// probed is the answered variable; it leaves the candidate set.
	probed boolexpr.Var
	answer bool
	// touched are the indices of the undecided expressions that contained
	// probed and were re-simplified (every other expression kept its
	// cached simplified DNF and CNF untouched).
	touched []int
	// decided is the subset of touched that became Boolean constants.
	decided []int
	// affected are the variables other than probed occurring in the
	// touched expressions before simplification, ascending: exactly the
	// variables whose cached per-variable aggregates may now be stale.
	affected []boolexpr.Var
	// dropped is the subset of affected that no longer occurs in any
	// undecided expression and therefore left the candidate set.
	dropped []boolexpr.Var
}

// applyProbe substitutes the answer for v into every expression containing
// it, re-simplifying only those, conditioning their CNFs on it and
// updating the inverted index, the occurrence counts and the live
// candidate list. It returns the probe delta for cache reconciliation.
func (w *workset) applyProbe(v boolexpr.Var, answer bool) *probeDelta {
	val := boolexpr.NewValuation()
	val.Set(v, answer)
	d := &probeDelta{probed: v, answer: answer}
	affected := make(map[boolexpr.Var]bool)
	for _, i := range w.exprsWith(v) {
		for u := range w.exprVars[i] {
			w.occ[u]-- // expr i was undecided and contained u
			if u != v {
				affected[u] = true
			}
		}
		simplified := w.exprs[i].Simplify(val)
		w.refresh(i, simplified)
		if w.cnfs != nil {
			w.cnfs[i] = w.cnfs[i].Condition(v, answer)
		}
		if simplified.Decided() {
			w.undecided--
			d.decided = append(d.decided, i)
		} else {
			for u := range w.exprVars[i] {
				w.occ[u]++
			}
		}
		d.touched = append(d.touched, i)
	}
	delete(w.varIndex, v)
	delete(w.occ, v)
	w.dropCand(v)
	d.affected = make([]boolexpr.Var, 0, len(affected))
	for u := range affected {
		d.affected = append(d.affected, u)
	}
	sort.Slice(d.affected, func(i, j int) bool { return d.affected[i] < d.affected[j] })
	for _, u := range d.affected {
		if w.occ[u] == 0 {
			delete(w.occ, u)
			w.dropCand(u)
			d.dropped = append(d.dropped, u)
		}
	}
	return d
}

// dropCand removes v from the sorted candidate list, if present.
func (w *workset) dropCand(v boolexpr.Var) {
	i := sort.Search(len(w.cands), func(i int) bool { return w.cands[i] >= v })
	if i < len(w.cands) && w.cands[i] == v {
		w.cands = append(w.cands[:i], w.cands[i+1:]...)
	}
}

// rowStatus aggregates part truth values back to original output rows
// (inverse of splitting): a row is True if some part is True, False if all
// parts are False, and undecided otherwise.
func (w *workset) rowStatus(numRows int) []rowState {
	states := make([]rowState, numRows)
	counts := make([]int, numRows)
	falses := make([]int, numRows)
	for i, e := range w.exprs {
		row := w.partOf[i]
		counts[row]++
		switch {
		case e.IsTrue():
			states[row] = rowTrue
		case e.IsFalse():
			falses[row]++
		}
	}
	for r := range states {
		if states[r] != rowTrue && counts[r] > 0 && falses[r] == counts[r] {
			states[r] = rowFalse
		}
	}
	return states
}

// rowState is the resolution status of one output row.
type rowState uint8

// Row statuses.
const (
	rowUndecided rowState = iota
	rowTrue
	rowFalse
)

// prepareExpressions applies known probe answers, optionally splits large
// expressions, and returns the working expressions with their row mapping.
// Splitting follows the paper's pre-processing (Section 7.1): when an
// expression's CNF would exceed cnfBound clauses (or always, when
// splitAll is set), its terms are partitioned randomly into parts of at
// most maxTerms terms. When needCNF is set it also returns each part's
// CNF, reusing the conversions the split pass made to test the bound; a
// part whose CNF still exceeds cnfBound is an error.
func prepareExpressions(
	exprs []boolexpr.Expr,
	known *boolexpr.Valuation,
	split bool, splitAll bool, needCNF bool, maxTerms, cnfBound int,
	rng *rand.Rand,
) (parts []boolexpr.Expr, partOf []int, cnfs []boolexpr.CNF, err error) {
	for row, e := range exprs {
		s := e.Simplify(known)
		ps := []part{{e: s}}
		if split && !s.Decided() {
			var needSplit bool
			if splitAll {
				needSplit = s.NumTerms() > maxTerms
			} else {
				ps[0].cnf, ps[0].ok = s.ToCNF(cnfBound)
				needSplit = !ps[0].ok
			}
			if needSplit {
				bound := 0
				if needCNF {
					bound = cnfBound
				}
				ps = splitToFit(s, maxTerms, bound, rng)
			}
		}
		for _, p := range ps {
			if needCNF && !p.ok {
				if p.cnf, p.ok = p.e.ToCNF(cnfBound); !p.ok {
					return nil, nil, nil, fmt.Errorf("resolve: CNF of expression %d exceeds %d clauses; split it first", len(parts), cnfBound)
				}
			}
			parts = append(parts, p.e)
			partOf = append(partOf, row)
			if needCNF {
				cnfs = append(cnfs, p.cnf)
			}
		}
	}
	return parts, partOf, cnfs, nil
}

// part is one working expression with the CNF the split pass derived for
// it; ok reports whether cnf was derived within the clause bound.
type part struct {
	e   boolexpr.Expr
	cnf boolexpr.CNF
	ok  bool
}

// splitToFit splits e into parts of at most maxTerms terms and, when
// cnfBound > 0, keeps halving the term bound of any part whose CNF still
// exceeds the clause bound, returning each part with the CNF that test
// produced. A term bound of maxTerms does not by itself bound the CNF — a
// B-term k-DNF can have k^B clauses — so for wide terms (e.g. Q8's 8-way
// joins) parts shrink further, down to single-term parts whose CNF is
// always |term| unit clauses.
func splitToFit(e boolexpr.Expr, maxTerms, cnfBound int, rng *rand.Rand) []part {
	var out []part
	for _, p := range boolexpr.Split(e, maxTerms, rng) {
		if cnfBound <= 0 {
			out = append(out, part{e: p})
			continue
		}
		if cnf, ok := p.ToCNF(cnfBound); ok || p.NumTerms() <= 1 {
			out = append(out, part{p, cnf, ok})
			continue
		}
		half := p.NumTerms() / 2
		if half >= maxTerms {
			half = maxTerms / 2
		}
		if half < 1 {
			half = 1
		}
		out = append(out, splitToFit(p, half, cnfBound, rng)...)
	}
	return out
}
