package resolve

import (
	"math/rand"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/ibe"
)

// randomDNF draws a DNF of up to maxTerms terms, each of up to
// maxTermSize variables out of nvars.
func randomDNF(rng *rand.Rand, nvars, maxTerms, maxTermSize int) boolexpr.Expr {
	nt := 1 + rng.Intn(maxTerms)
	terms := make([]boolexpr.Term, 0, nt)
	for i := 0; i < nt; i++ {
		size := 1 + rng.Intn(maxTermSize)
		vars := make([]boolexpr.Var, 0, size)
		for j := 0; j < size; j++ {
			vars = append(vars, boolexpr.Var(rng.Intn(nvars)))
		}
		terms = append(terms, boolexpr.NewTerm(vars...))
	}
	return boolexpr.NewExpr(terms...)
}

// The paper's recasting claim (Section 5): "for any Boolean expression and
// probabilities, the probe that the algorithm would have chosen is given
// the highest utility score" — verified for RO vs ReadOnceStep and for
// General's Formula-3 rounds vs FalseTargetingStep, on single expressions.
func TestUtilityArgmaxMatchesAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		e := randomDNF(rng, 8, 4, 3)
		if e.Decided() {
			continue
		}
		p := make(map[boolexpr.Var]float64, 8)
		for v := 0; v < 8; v++ {
			p[boolexpr.Var(v)] = 0.05 + 0.9*rng.Float64()
		}
		probs := func(v boolexpr.Var) float64 { return p[v] }

		w := newWorkset([]boolexpr.Expr{e}, []int{0}, nil)
		candidates := w.candidates()

		// RO: the utility argmax must be a valid Boros–Ünlüyurt choice —
		// a minimum-probability variable of a maximum-weight term. (When
		// weights tie, both the algorithm and the utility may pick any of
		// the tied terms, so we check validity rather than identity.)
		roScores := fullScores(RO{}, w, probs, candidates, 0)
		argmax := candidates[0]
		for _, x := range candidates {
			if roScores[x] > roScores[argmax] {
				argmax = x
			}
		}
		maxW := -1.0
		weight := func(tm boolexpr.Term) float64 {
			v := 1.0
			for _, x := range tm {
				v *= probs(x)
			}
			return v / float64(len(tm))
		}
		for _, tm := range e.Terms() {
			if w := weight(tm); w > maxW {
				maxW = w
			}
		}
		minP := 2.0
		inMaxTerm := false
		for _, tm := range e.Terms() {
			if weight(tm) < maxW-1e-12 {
				continue
			}
			for _, x := range tm {
				if probs(x) < minP {
					minP = probs(x)
				}
				if x == argmax {
					inMaxTerm = true
				}
			}
		}
		if !inMaxTerm {
			t.Fatalf("trial %d: RO argmax %d not in a maximum-weight term of %v", trial, argmax, e)
		}
		if probs(argmax) > minP+1e-12 {
			t.Fatalf("trial %d: RO argmax %d has p=%.4f, min over max-weight terms is %.4f",
				trial, argmax, probs(argmax), minP)
		}

		// General's even rounds are exactly Formula (3): the algorithm's
		// choice must carry the (weakly) highest score.
		genScores := fullScores(General{}, w, probs, candidates, 0)
		algo := ibe.FalseTargetingStep(e, probs)
		for x, s := range genScores {
			if s > genScores[algo]+1e-9 {
				t.Fatalf("trial %d: General/F3 prefers %d (%.6f) over the algorithm's %d (%.6f) for %v",
					trial, x, s, algo, genScores[algo], e)
			}
		}
	}
}
