package resolve

import "qres/internal/boolexpr"

// NewWorksetForBench builds a working set over raw expressions for the
// repository-level utility micro-benchmarks. It intentionally returns the
// unexported workset type: external callers can hold the value and pass it
// to Utility.Scores but cannot depend on its internals, keeping the type's
// invariants owned by this package.
func NewWorksetForBench(exprs []boolexpr.Expr, partOf []int, needCNF bool) (*workset, error) {
	_, _, cnfs, err := prepareExpressions(exprs, boolexpr.NewValuation(), false, false, needCNF, 0, 4096, nil)
	if err != nil {
		return nil, err
	}
	return newWorkset(exprs, partOf, cnfs), nil
}

// WorksetCandidates exposes the candidate-probe set for benchmarks.
func WorksetCandidates(w *workset) []boolexpr.Var {
	return w.candidates()
}
