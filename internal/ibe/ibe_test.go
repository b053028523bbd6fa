package ibe

import (
	"fmt"
	"math/rand"
	"testing"

	"qres/internal/boolexpr"
)

// randomReadOnce builds a read-once DNF: disjoint terms over fresh vars.
func randomReadOnce(rng *rand.Rand, maxTerms, maxTermSize int) boolexpr.Expr {
	next := boolexpr.Var(0)
	nt := 1 + rng.Intn(maxTerms)
	terms := make([]boolexpr.Term, 0, nt)
	for i := 0; i < nt; i++ {
		size := 1 + rng.Intn(maxTermSize)
		vars := make([]boolexpr.Var, 0, size)
		for j := 0; j < size; j++ {
			vars = append(vars, next)
			next++
		}
		terms = append(terms, boolexpr.NewTerm(vars...))
	}
	return boolexpr.NewExpr(terms...)
}

func randomExpr(rng *rand.Rand, nvars, maxTerms, maxTermSize int) boolexpr.Expr {
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

func randomProbs(rng *rand.Rand, n int) Probs {
	p := make(map[boolexpr.Var]float64, n)
	for v := 0; v < n; v++ {
		p[boolexpr.Var(v)] = 0.05 + 0.9*rng.Float64()
	}
	return func(v boolexpr.Var) float64 { return p[v] }
}

func TestIsReadOnce(t *testing.T) {
	ro := boolexpr.NewExpr(boolexpr.NewTerm(0, 1), boolexpr.NewTerm(2))
	if !IsReadOnce(ro) {
		t.Error("disjoint terms are read-once")
	}
	shared := boolexpr.NewExpr(boolexpr.NewTerm(0, 1), boolexpr.NewTerm(0, 2))
	if IsReadOnce(shared) {
		t.Error("repeated variable is not read-once")
	}
}

func TestReadOnceStepPicksLeastLikelyInLikeliestTerm(t *testing.T) {
	// Terms {0,1} and {2}: W({0,1}) = .9*.9/2 = .405, W({2}) = .6.
	e := boolexpr.NewExpr(boolexpr.NewTerm(0, 1), boolexpr.NewTerm(2))
	p := func(v boolexpr.Var) float64 {
		return map[boolexpr.Var]float64{0: 0.9, 1: 0.9, 2: 0.6}[v]
	}
	if got := ReadOnceStep(e, p); got != 2 {
		t.Errorf("picked %d, want 2 (term weight 0.6 > 0.405)", got)
	}
	// Make term {0,1} the likeliest; the less likely of {0,1} wins.
	p2 := func(v boolexpr.Var) float64 {
		return map[boolexpr.Var]float64{0: 0.95, 1: 0.9, 2: 0.3}[v]
	}
	if got := ReadOnceStep(e, p2); got != 1 {
		t.Errorf("picked %d, want 1 (least likely in likeliest term)", got)
	}
}

func TestFalseTargetingStep(t *testing.T) {
	// x0 occurs in 2 terms with p=.5 → score 1.0; x1/x2 occur once.
	e := boolexpr.NewExpr(boolexpr.NewTerm(0, 1), boolexpr.NewTerm(0, 2))
	p := func(boolexpr.Var) float64 { return 0.5 }
	if got := FalseTargetingStep(e, p); got != 0 {
		t.Errorf("picked %d, want 0", got)
	}
}

// Evaluate must always terminate with the correct truth value and never
// exceed the variable budget, for every step rule.
func TestEvaluateCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rules := map[string]func(int) StepRule{
		"read-once":   func(int) StepRule { return ReadOnceStep },
		"false-first": func(int) StepRule { return FalseTargetingStep },
		"alternating": AlternatingStep,
	}
	for name, mk := range rules {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				e := randomExpr(rng, 10, 5, 3)
				p := randomProbs(rng, 10)
				truth := boolexpr.NewValuation()
				for v := 0; v < 10; v++ {
					truth.Set(boolexpr.Var(v), rng.Intn(2) == 0)
				}
				orc := func(v boolexpr.Var) (bool, error) {
					b, _ := truth.Get(v)
					return b, nil
				}
				got, obs, err := Evaluate(e, p, mk, orc)
				if err != nil {
					t.Fatal(err)
				}
				if got != e.Eval(truth) {
					t.Fatalf("trial %d: evaluated %t, truth %t (expr %v)", trial, got, e.Eval(truth), e)
				}
				if obs > len(e.Vars()) {
					t.Fatalf("trial %d: %d observations exceed %d variables", trial, obs, len(e.Vars()))
				}
			}
		})
	}
}

// On read-once expressions the RO-driven evaluator should use no more
// observations on average than random order (Boros–Ünlüyurt optimality,
// checked statistically).
func TestReadOnceBeatsRandomOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var roTotal, randTotal int
	for trial := 0; trial < 300; trial++ {
		e := randomReadOnce(rng, 4, 3)
		nvars := len(e.Vars())
		p := make(map[boolexpr.Var]float64, nvars)
		truth := boolexpr.NewValuation()
		for _, v := range e.Vars() {
			p[v] = 0.05 + 0.9*rng.Float64()
			truth.Set(v, rng.Float64() < p[v])
		}
		probs := func(v boolexpr.Var) float64 { return p[v] }
		orc := func(v boolexpr.Var) (bool, error) {
			b, _ := truth.Get(v)
			return b, nil
		}

		_, obs, err := Evaluate(e, probs, func(int) StepRule { return ReadOnceStep }, orc)
		if err != nil {
			t.Fatal(err)
		}
		roTotal += obs

		randomRule := func(int) StepRule {
			return func(ex boolexpr.Expr, _ Probs) boolexpr.Var {
				vars := ex.Vars()
				return vars[rng.Intn(len(vars))]
			}
		}
		_, obs, err = Evaluate(e, probs, randomRule, orc)
		if err != nil {
			t.Fatal(err)
		}
		randTotal += obs
	}
	if roTotal > randTotal {
		t.Errorf("read-once rule used %d observations, random used %d", roTotal, randTotal)
	}
	t.Log(fmt.Sprintf("read-once %d vs random %d observations over 300 trials", roTotal, randTotal))
}
