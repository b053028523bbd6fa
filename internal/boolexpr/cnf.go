package boolexpr

import "slices"

// CNF is a monotone conjunctive normal form: a conjunction of disjunctive
// clauses over positive variables. It is the dual representation the
// Q-Value utility needs: nt counts DNF terms (ways to prove True) and nc
// counts CNF clauses (ways to prove False, one False variable per clause).
//
// Clauses reuse Term for their canonical sorted-variable representation.
type CNF struct {
	clauses []Term
}

// Clauses returns the canonical clauses. The slice must not be modified.
func (c CNF) Clauses() []Term { return c.clauses }

// NumClauses returns nc, the number of CNF clauses. By the conventions of
// the paper's Formula (1): the constant True has nc = 0 (empty conjunction)
// and the constant False has a single empty clause.
func (c CNF) NumClauses() int { return len(c.clauses) }

// IsTrue reports whether c is the constant True (no clauses).
func (c CNF) IsTrue() bool { return len(c.clauses) == 0 }

// IsFalse reports whether c is the constant False (contains the empty
// clause).
func (c CNF) IsFalse() bool { return len(c.clauses) == 1 && len(c.clauses[0]) == 0 }

// Eval evaluates the CNF under a valuation; unassigned variables are
// treated as False, mirroring Expr.Eval.
func (c CNF) Eval(val *Valuation) bool {
	for _, clause := range c.clauses {
		sat := false
		for _, v := range clause {
			if value, ok := val.Get(v); ok && value {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// ClausesWithout counts the clauses that do not contain v. When v is set to
// True every clause containing v is satisfied, so this is nc(val_{v=True}).
func (c CNF) ClausesWithout(v Var) int {
	n := 0
	for _, clause := range c.clauses {
		if !clause.Contains(v) {
			n++
		}
	}
	return n
}

// HasUnitClause reports whether some clause is exactly {v}. If so, setting
// v to False falsifies the whole expression.
func (c CNF) HasUnitClause(v Var) bool {
	for _, clause := range c.clauses {
		if len(clause) == 1 && clause[0] == v {
			return true
		}
	}
	return false
}

// ToCNF converts the monotone DNF e into its canonical CNF: the unique
// minimal clause set of e, sorted shortest first, then lexicographically.
// It distributes e's terms one round at a time, keeping the invariant that
// no kept clause contains another. In the round for term t a clause that
// meets t is kept as it is, and every other clause c is replaced by
// c ∪ {v} for each v in t. Such a c ∪ {v} can only be absorbed by a kept
// clause that contains v, so only those are checked. After each round the
// kept clauses are the minimal CNF of the terms seen so far.
//
// The number of clauses of a k-DNF with m terms can reach k^m, so the
// conversion is bounded: if more than maxClauses clauses are kept after
// some round, conversion aborts and ok is false. The paper handles this
// case by splitting the expression into smaller DNFs first (Section 7.1,
// pre-processing); see Split. A maxClauses of 0 or below means "no bound".
func (e Expr) ToCNF(maxClauses int) (cnf CNF, ok bool) {
	if e.IsFalse() {
		return CNF{clauses: []Term{{}}}, true
	}
	if e.IsTrue() {
		return CNF{}, true
	}
	clauses := []maskedTerm{{}}
	var next, open []maskedTerm
	var containing [][]maskedTerm // containing[j]: kept clauses that contain t[j]
	for _, t := range e.terms {
		next, open = next[:0], open[:0]
		containing = slices.Grow(containing[:0], len(t))[:len(t)]
		for _, c := range clauses {
			met := false
			for j, v := range t {
				if c.mask&varBit(v) != 0 && c.t.Contains(v) {
					containing[j] = append(containing[j], c)
					met = true
				}
			}
			if met {
				next = append(next, c)
			} else {
				open = append(open, c)
			}
		}
		next = slices.Grow(next, len(open)*len(t))
		for _, c := range open {
			for j, v := range t {
				m := c.mask | varBit(v)
				if !absorbedWith(containing[j], c.t, m) {
					next = append(next, maskedTerm{c.t.with(v), m})
				}
			}
		}
		for j := range containing {
			containing[j] = containing[j][:0]
		}
		clauses, next = next, clauses
		if maxClauses > 0 && len(clauses) > maxClauses {
			return CNF{}, false
		}
	}
	out := make([]Term, len(clauses))
	for i, c := range clauses {
		out[i] = c.t
	}
	slices.SortFunc(out, Term.compare)
	return CNF{clauses: out}, true
}

// maskedTerm is a clause with a bit mask of its variables (bit v mod 64),
// which rules out most subset tests without reading the clause.
type maskedTerm struct {
	t    Term
	mask uint64
}

func varBit(v Var) uint64 { return 1 << (uint(v) % 64) }

// mask returns the variable mask of t: a subset of u has no bit u lacks.
func (t Term) mask() uint64 {
	var m uint64
	for _, v := range t {
		m |= varBit(v)
	}
	return m
}

// absorbedWith reports whether one of kept, all of which contain v, is a
// subset of c ∪ {v}, where v is not in c and m is the mask of c ∪ {v}.
func absorbedWith(kept []maskedTerm, c Term, m uint64) bool {
	for _, k := range kept {
		if k.mask&^m != 0 || len(k.t) > len(c)+1 {
			continue
		}
		// v is one variable of k missing from c; any other miss means k
		// is no subset.
		i, misses := 0, 0
		for _, x := range k.t {
			for i < len(c) && c[i] < x {
				i++
			}
			if i < len(c) && c[i] == x {
				i++
			} else if misses++; misses > 1 {
				break
			}
		}
		if misses <= 1 {
			return true
		}
	}
	return false
}

// with returns the canonical term t ∪ {v} for a v not in t.
func (t Term) with(v Var) Term {
	i, _ := slices.BinarySearch(t, v)
	out := make(Term, len(t)+1)
	copy(out, t[:i])
	out[i] = v
	copy(out[i+1:], t[i:])
	return out
}

// Condition returns the CNF of the expression after v is set to val,
// derived from c instead of converted afresh. c's clauses never contain
// one another, and conditioning keeps that invariant: with v = true the
// clauses that contain v are satisfied and dropped; with v = false v is
// removed from its clauses, and every clause that a shortened clause is
// now a subset of is dropped (a shortened clause itself can be a subset of
// no other clause). The result is again the minimal CNF, which is unique,
// so it equals ToCNF of the conditioned expression, clause for clause.
// Removing clauses never adds any, so conditioning cannot exceed a bound
// the input met. c is left unchanged.
func (c CNF) Condition(v Var, val bool) CNF {
	var kept, short []Term
	var masks []uint64 // masks[i] is short[i].mask()
	for _, cl := range c.clauses {
		switch {
		case !cl.Contains(v):
			kept = append(kept, cl)
		case val:
		case len(cl) == 1:
			return CNF{clauses: []Term{{}}}
		default:
			s := make(Term, 0, len(cl)-1)
			for _, x := range cl {
				if x != v {
					s = append(s, x)
				}
			}
			short, masks = append(short, s), append(masks, s.mask())
		}
	}
	if len(short) == 0 {
		return CNF{clauses: kept}
	}
	// Both lists are in canonical order (removing v from clauses that all
	// contain it keeps their order), so one merge restores it.
	out := make([]Term, 0, len(kept)+len(short))
	i := 0
	for _, k := range kept {
		km, absorbed := k.mask(), false
		for j, s := range short {
			if len(s) >= len(k) {
				break
			}
			if masks[j]&^km == 0 && s.SubsetOf(k) {
				absorbed = true
				break
			}
		}
		if absorbed {
			continue
		}
		for i < len(short) && short[i].compare(k) < 0 {
			out = append(out, short[i])
			i++
		}
		out = append(out, k)
	}
	return CNF{clauses: append(out, short[i:]...)}
}

// AssumeCounts reports the term and clause counts of e after hypothetically
// probing v, without materializing the simplified expressions. cnf must be
// the CNF of e. Following the conventions of the paper's Formula (1):
//
//   - if v=True decides e to True, ncTrue = 0 (and ntTrue is e's count);
//   - if v=False decides e to False, ntFalse = 0.
//
// Counts are computed by filtering, not by full re-canonicalization, so
// they can over-count by terms/clauses that absorption would merge; the
// products nt·nc used by Q-Value are exact in the decided cases (they are
// zero) and a close upper bound otherwise. Full re-simplification happens
// once per actual probe, not per candidate, which keeps utility computation
// linear in the provenance size.
func (e Expr) AssumeCounts(cnf CNF, v Var) (ntTrue, ncTrue, ntFalse, ncFalse int) {
	// v = True: DNF terms keep their count (v is just removed from its
	// terms); the expression becomes True iff some term is exactly {v}.
	// CNF clauses containing v are satisfied and disappear.
	ntTrue = len(e.terms)
	ncTrue = cnf.ClausesWithout(v)

	// v = False: DNF terms containing v are falsified and disappear; the
	// expression becomes False iff every term contains v. CNF clauses keep
	// their count unless some clause is exactly {v}, which decides False.
	for _, t := range e.terms {
		if !t.Contains(v) {
			ntFalse++
		}
	}
	ncFalse = cnf.NumClauses()
	if cnf.HasUnitClause(v) || ntFalse == 0 {
		ntFalse = 0
	}
	return ntTrue, ncTrue, ntFalse, ncFalse
}
