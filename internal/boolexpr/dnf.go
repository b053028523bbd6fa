package boolexpr

import (
	"sort"
	"strings"
)

// Term is a conjunction of variables, kept sorted in ascending order with
// no duplicates. The empty term is the constant True conjunction.
type Term []Var

// NewTerm builds a canonical term from vars (sorted, deduplicated).
func NewTerm(vars ...Var) Term {
	t := make(Term, len(vars))
	copy(t, vars)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	// Deduplicate in place.
	out := t[:0]
	for i, v := range t {
		if i == 0 || v != t[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Contains reports whether v occurs in t. Terms are sorted and short, so
// a scan that stops at the first variable not below v is fastest.
func (t Term) Contains(v Var) bool {
	for _, x := range t {
		if x >= v {
			return x == v
		}
	}
	return false
}

// SubsetOf reports whether every variable of t occurs in u. Both terms must
// be canonical (sorted, unique).
func (t Term) SubsetOf(u Term) bool {
	if len(t) > len(u) {
		return false
	}
	i := 0
	for _, v := range t {
		for i < len(u) && u[i] < v {
			i++
		}
		if i >= len(u) || u[i] != v {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether two canonical terms are identical.
func (t Term) Equal(u Term) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// compare orders canonical terms first by length, then lexicographically.
// Ordering by length first makes absorption a single forward pass: a term
// can only absorb terms at least as long as itself.
func (t Term) compare(u Term) int {
	if len(t) != len(u) {
		if len(t) < len(u) {
			return -1
		}
		return 1
	}
	for i := range t {
		if t[i] != u[i] {
			if t[i] < u[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Expr is a monotone Boolean expression in disjunctive normal form: a
// disjunction of conjunctive terms with no negation. Expressions are kept
// canonical: terms sorted (shortest first, then lexicographic), no duplicate
// terms, and no term that is a superset of another (absorption, x ∨ xy = x).
//
// The two Boolean constants have natural representations: False is the
// empty disjunction (no terms), True is the disjunction containing the
// empty term.
type Expr struct {
	terms []Term
}

// False is the constant-false expression (empty disjunction).
func False() Expr { return Expr{} }

// True is the constant-true expression (the empty conjunction).
func True() Expr { return Expr{terms: []Term{{}}} }

// Lit returns the single-variable expression v.
func Lit(v Var) Expr { return Expr{terms: []Term{{v}}} }

// NewExpr builds a canonical DNF expression from the given terms.
func NewExpr(terms ...Term) Expr {
	return canonicalize(terms)
}

// canonicalize sorts, deduplicates and applies absorption to terms,
// returning a canonical expression. It takes ownership of the slice but not
// of the individual terms.
func canonicalize(terms []Term) Expr {
	if len(terms) == 0 {
		return False()
	}
	ts := make([]Term, len(terms))
	copy(ts, terms)
	sort.Slice(ts, func(i, j int) bool { return ts[i].compare(ts[j]) < 0 })
	// The empty term absorbs everything: the expression is True.
	if len(ts[0]) == 0 {
		return True()
	}
	// Absorption: drop any term that is a superset of an earlier kept term.
	// Terms are sorted shortest-first, so a single pass with subset checks
	// against the kept set is sound. Only strictly shorter kept terms can
	// absorb: an equal-length subset would be an equal term, and duplicates
	// are removed by the adjacent-equality check — so the inner scan stops
	// at the first kept term of the same length, which makes
	// canonicalization near-linear on uniform-length term sets (the common
	// shape for join provenance and distributed CNF clauses).
	kept := ts[:0]
	for i, t := range ts {
		if i > 0 && t.Equal(ts[i-1]) {
			continue
		}
		absorbed := false
		for _, k := range kept {
			if len(k) >= len(t) {
				break
			}
			if k.SubsetOf(t) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, t)
		}
	}
	return Expr{terms: kept}
}

// Terms returns the canonical terms of e. The returned slice must not be
// modified.
func (e Expr) Terms() []Term { return e.terms }

// NumTerms returns nt(e), the number of DNF terms. The paper's convention
// is that a decided-False expression has nt = 0 (and the True constant has
// a single empty term).
func (e Expr) NumTerms() int { return len(e.terms) }

// IsFalse reports whether e is the constant False.
func (e Expr) IsFalse() bool { return len(e.terms) == 0 }

// IsTrue reports whether e is the constant True.
func (e Expr) IsTrue() bool { return len(e.terms) == 1 && len(e.terms[0]) == 0 }

// Decided reports whether e is a Boolean constant, i.e. the correctness of
// the output tuple it annotates is fully determined.
func (e Expr) Decided() bool { return e.IsFalse() || e.IsTrue() }

// Value returns the constant value of a decided expression. It panics if e
// is not decided; callers must check Decided first.
func (e Expr) Value() bool {
	switch {
	case e.IsTrue():
		return true
	case e.IsFalse():
		return false
	}
	panic("boolexpr: Value on undecided expression")
}

// Vars returns the distinct variables occurring in e, in ascending order.
func (e Expr) Vars() []Var {
	seen := make(map[Var]struct{})
	for _, t := range e.terms {
		for _, v := range t {
			seen[v] = struct{}{}
		}
	}
	out := make([]Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContainsVar reports whether v occurs anywhere in e.
func (e Expr) ContainsVar(v Var) bool {
	for _, t := range e.terms {
		if t.Contains(v) {
			return true
		}
	}
	return false
}

// MaxTermSize returns k for a k-DNF: the size of the largest term. The
// constants return 0.
func (e Expr) MaxTermSize() int {
	k := 0
	for _, t := range e.terms {
		if len(t) > k {
			k = len(t)
		}
	}
	return k
}

// Or returns the canonical disjunction of e and f.
func (e Expr) Or(f Expr) Expr { return OrAll(e, f) }

// OrAll returns the canonical disjunction of es. It canonicalizes the
// union of their terms once, so disjoining d expressions of T terms in all
// costs one O(T log T) sort instead of the O(d·T log T) of folding Or; the
// canonical form is unique, so the result equals that fold. The operands
// are never modified: their terms are copied into a fresh slice.
func OrAll(es ...Expr) Expr {
	n := 0
	for _, e := range es {
		n += len(e.terms)
	}
	terms := make([]Term, 0, n)
	for _, e := range es {
		terms = append(terms, e.terms...)
	}
	return canonicalize(terms)
}

// And returns the canonical conjunction of e and f, distributing terms.
// This is how join provenance is built: the provenance of a joined tuple is
// the conjunction of its inputs' provenance.
func (e Expr) And(f Expr) Expr {
	if e.IsFalse() || f.IsFalse() {
		return False()
	}
	if e.IsTrue() {
		return f
	}
	if f.IsTrue() {
		return e
	}
	terms := make([]Term, 0, len(e.terms)*len(f.terms))
	for _, t := range e.terms {
		for _, u := range f.terms {
			merged := make(Term, 0, len(t)+len(u))
			merged = append(merged, t...)
			merged = append(merged, u...)
			terms = append(terms, NewTerm(merged...))
		}
	}
	return canonicalize(terms)
}

// AndVar returns e ∧ v, a cheaper special case of And used when annotating
// a tuple with one more input variable.
func (e Expr) AndVar(v Var) Expr {
	if e.IsFalse() {
		return False()
	}
	terms := make([]Term, 0, len(e.terms))
	for _, t := range e.terms {
		merged := make(Term, 0, len(t)+1)
		merged = append(merged, t...)
		merged = append(merged, v)
		terms = append(terms, NewTerm(merged...))
	}
	return canonicalize(terms)
}

// Eval evaluates e under a (total, as far as e's variables go) valuation.
// It returns an error-free result only when every variable of e is
// assigned; unassigned variables are treated as False, which matches the
// possible-world semantics where a valuation lists the correct tuples.
func (e Expr) Eval(val *Valuation) bool {
	for _, t := range e.terms {
		all := true
		for _, v := range t {
			value, ok := val.Get(v)
			if !ok || !value {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Simplify substitutes the assigned variables of val into e and returns the
// canonical result (Step 3 of the framework: plug in known probe answers).
// Terms containing a False variable are dropped; True variables are removed
// from their terms; absorption is re-applied. If some term becomes empty
// the result is the constant True.
func (e Expr) Simplify(val *Valuation) Expr {
	if val.Len() == 0 {
		return e
	}
	terms := make([]Term, 0, len(e.terms))
	for _, t := range e.terms {
		keep := make(Term, 0, len(t))
		dropped := false
		for _, v := range t {
			value, ok := val.Get(v)
			switch {
			case !ok:
				keep = append(keep, v)
			case !value:
				dropped = true
			}
			if dropped {
				break
			}
		}
		if dropped {
			continue
		}
		if len(keep) == 0 {
			return True()
		}
		terms = append(terms, keep)
	}
	return canonicalize(terms)
}

// Equal reports whether two canonical expressions are identical.
func (e Expr) Equal(f Expr) bool {
	if len(e.terms) != len(f.terms) {
		return false
	}
	for i := range e.terms {
		if !e.terms[i].Equal(f.terms[i]) {
			return false
		}
	}
	return true
}

// String renders e using the registry-free default variable names.
func (e Expr) String() string { return e.Format(nil) }

// Format renders e using names from reg (or "x<n>" names if reg is nil),
// e.g. "(a0 ∧ r0 ∧ e0) ∨ (a0 ∧ r1 ∧ e1)".
func (e Expr) Format(reg *Registry) string {
	if e.IsFalse() {
		return "false"
	}
	if e.IsTrue() {
		return "true"
	}
	name := func(v Var) string {
		if reg != nil {
			return reg.Name(v)
		}
		return (&Registry{}).Name(v)
	}
	var b strings.Builder
	for i, t := range e.terms {
		if i > 0 {
			b.WriteString(" ∨ ")
		}
		if len(t) > 1 {
			b.WriteByte('(')
		}
		for j, v := range t {
			if j > 0 {
				b.WriteString(" ∧ ")
			}
			b.WriteString(name(v))
		}
		if len(t) > 1 {
			b.WriteByte(')')
		}
	}
	return b.String()
}
