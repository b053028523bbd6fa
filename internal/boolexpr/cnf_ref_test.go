package boolexpr

import (
	"math/rand"
	"testing"
)

// referenceToCNF is the plain conversion ToCNF replaced, kept as its
// oracle: each round distributes the next term over every clause, then
// sorts the candidates and removes duplicates and supersets of kept
// clauses. It aborts after the same rounds as ToCNF.
func referenceToCNF(e Expr, maxClauses int) (CNF, bool) {
	if e.IsFalse() {
		return CNF{clauses: []Term{{}}}, true
	}
	if e.IsTrue() {
		return CNF{}, true
	}
	clauses := []Term{{}}
	for _, t := range e.terms {
		next := make([]Term, 0, len(clauses)*len(t))
		for _, c := range clauses {
			for _, v := range t {
				if c.Contains(v) {
					next = append(next, c)
					continue
				}
				merged := make(Term, 0, len(c)+1)
				merged = append(merged, c...)
				merged = append(merged, v)
				next = append(next, NewTerm(merged...))
			}
		}
		clauses = referenceAbsorb(next)
		if maxClauses > 0 && len(clauses) > maxClauses {
			return CNF{}, false
		}
	}
	return CNF{clauses: clauses}, true
}

// referenceAbsorb sorts clauses shortest-first and removes duplicates and
// supersets of kept clauses (X ∧ (X∨Y) = X in the clause lattice).
func referenceAbsorb(clauses []Term) []Term {
	e := canonicalize(clauses)
	if e.IsTrue() {
		// canonicalize reads the empty term as the DNF constant True; as
		// a clause set it is the CNF constant False, the same form.
		return []Term{{}}
	}
	return e.terms
}

// sameCNF reports whether a and b hold identical clauses in the same order.
func sameCNF(a, b CNF) bool {
	if len(a.clauses) != len(b.clauses) {
		return false
	}
	for i := range a.clauses {
		if !a.clauses[i].Equal(b.clauses[i]) {
			return false
		}
	}
	return true
}

// checkToCNF fails unless ToCNF agrees with the reference on the ok flag
// and, when ok, on every clause and its position.
func checkToCNF(t *testing.T, e Expr, bound int) {
	t.Helper()
	got, gotOK := e.ToCNF(bound)
	want, wantOK := referenceToCNF(e, bound)
	if gotOK != wantOK {
		t.Fatalf("ToCNF(%v, %d): ok = %t, reference ok = %t", e, bound, gotOK, wantOK)
	}
	if gotOK && !sameCNF(got, want) {
		t.Fatalf("ToCNF(%v, %d) = %v, reference %v", e, bound, got.clauses, want.clauses)
	}
}

// checkConditioning conditions e's CNF along probes, an alternating list
// of variable indices into e's current variables and answers, until e is
// decided or the probes run out. After every step the conditioned CNF
// must equal the reference conversion of the simplified expression.
func checkConditioning(t *testing.T, e Expr, probes []int) {
	t.Helper()
	cnf, _ := e.ToCNF(0)
	for i := 0; i+1 < len(probes) && !e.Decided(); i += 2 {
		vars := e.Vars()
		v, answer := vars[probes[i]%len(vars)], probes[i+1]%2 == 1
		cnf = cnf.Condition(v, answer)
		e = e.Simplify(NewValuation().With(v, answer))
		if want, _ := referenceToCNF(e, 0); !sameCNF(cnf, want) {
			t.Fatalf("after x%d=%t: conditioned CNF %v, reference CNF of %v is %v",
				v, answer, cnf.clauses, e, want.clauses)
		}
	}
}

var oracleBounds = []int{0, 3, 10, 40}

// ToCNF must keep the reference's clauses, their order and its abort
// round, across variable counts, term counts and term widths.
func TestToCNFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 20000; trial++ {
		nvars := 2 + rng.Intn(11)
		e := randomExpr(rng, nvars, 1+rng.Intn(8), 1+rng.Intn(4))
		checkToCNF(t, e, oracleBounds[trial%len(oracleBounds)])
	}
}

// Conditioning a CNF on an answer must give the same clauses, in the same
// order, as simplifying the expression and converting it afresh.
func TestConditionMatchesReconversion(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 3000; trial++ {
		e := randomExpr(rng, 2+rng.Intn(11), 1+rng.Intn(8), 1+rng.Intn(4))
		probes := make([]int, 64)
		for i := range probes {
			probes[i] = rng.Intn(1 << 10)
		}
		checkConditioning(t, e, probes)
	}
}

// decodeCNFInput reads a fuzz input as a bound byte, a term-count byte,
// then per term a width byte and that many variable bytes; the remaining
// bytes are the probe sequence. Variables are taken mod 32 and widths and
// term counts are capped so the reference conversion stays fast.
func decodeCNFInput(data []byte) (e Expr, bound int, probes []int) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return int(b), true
	}
	b, _ := next()
	bound = b % 48
	n, _ := next()
	var terms []Term
	for i := 0; i < n%9; i++ {
		w, ok := next()
		if !ok {
			break
		}
		vars := make([]Var, 0, 1+w%4)
		for j := 0; j < 1+w%4; j++ {
			x, ok := next()
			if !ok {
				break
			}
			vars = append(vars, Var(x%32))
		}
		terms = append(terms, NewTerm(vars...))
	}
	for _, b := range data {
		probes = append(probes, int(b))
	}
	return NewExpr(terms...), bound, probes
}

// FuzzCNF checks ToCNF and Condition against the reference conversion on
// decoded DNFs, bounds and probe sequences.
func FuzzCNF(f *testing.F) {
	// (x0∧x6) ∨ (x3∧x4) ∨ (x5∧x6) ∨ (x0∧x2∧x3) ∨ (x1∧x2∧x5) at bound 7,
	// then x1 = true: re-deriving the CNF overflows the bound partway.
	f.Add([]byte{7, 5, 1, 0, 6, 1, 3, 4, 1, 5, 6, 2, 0, 2, 3, 2, 1, 2, 5, 1, 1})
	// BenchmarkToCNF's shape: 8 disjoint 3-variable terms, unbounded.
	shape := []byte{0, 8}
	for i := 0; i < 8; i++ {
		shape = append(shape, 2, byte(3*i), byte(3*i+1), byte(3*i+2))
	}
	f.Add(append(shape, 0, 1, 5, 0, 9, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, bound, probes := decodeCNFInput(data)
		checkToCNF(t, e, bound)
		checkConditioning(t, e, probes)
	})
}
