package boolexpr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomExpr builds a random monotone DNF over variables [0, nvars) with up
// to maxTerms terms of up to maxTermSize variables each.
func randomExpr(rng *rand.Rand, nvars, maxTerms, maxTermSize int) Expr {
	nt := rng.Intn(maxTerms + 1)
	terms := make([]Term, 0, nt)
	for i := 0; i < nt; i++ {
		size := 1 + rng.Intn(maxTermSize)
		vars := make([]Var, 0, size)
		for j := 0; j < size; j++ {
			vars = append(vars, Var(rng.Intn(nvars)))
		}
		terms = append(terms, NewTerm(vars...))
	}
	return NewExpr(terms...)
}

// randomValuation assigns all nvars variables at random.
func randomValuation(rng *rand.Rand, nvars int) *Valuation {
	val := NewValuation()
	for v := 0; v < nvars; v++ {
		val.Set(Var(v), rng.Intn(2) == 0)
	}
	return val
}

func TestNewTermCanonical(t *testing.T) {
	tm := NewTerm(3, 1, 2, 1, 3)
	want := Term{1, 2, 3}
	if !tm.Equal(want) {
		t.Fatalf("NewTerm(3,1,2,1,3) = %v, want %v", tm, want)
	}
}

func TestTermSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Term
		want bool
	}{
		{NewTerm(), NewTerm(1, 2), true},
		{NewTerm(1), NewTerm(1, 2), true},
		{NewTerm(2), NewTerm(1, 2), true},
		{NewTerm(3), NewTerm(1, 2), false},
		{NewTerm(1, 2), NewTerm(1), false},
		{NewTerm(1, 3), NewTerm(1, 2, 3), true},
		{NewTerm(1, 4), NewTerm(1, 2, 3), false},
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("%v.SubsetOf(%v) = %t, want %t", c.a, c.b, got, c.want)
		}
	}
}

func TestConstants(t *testing.T) {
	if !False().IsFalse() || False().IsTrue() {
		t.Error("False() misclassified")
	}
	if !True().IsTrue() || True().IsFalse() {
		t.Error("True() misclassified")
	}
	if !False().Decided() || !True().Decided() {
		t.Error("constants must be decided")
	}
	if True().Value() != true || False().Value() != false {
		t.Error("constant values wrong")
	}
	if Lit(5).Decided() {
		t.Error("a literal is not decided")
	}
}

func TestValuePanicsOnUndecided(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Value on undecided expression did not panic")
		}
	}()
	Lit(0).Value()
}

func TestAbsorption(t *testing.T) {
	// x ∨ (x ∧ y) = x
	e := NewExpr(NewTerm(1), NewTerm(1, 2))
	if e.NumTerms() != 1 || !e.terms[0].Equal(Term{1}) {
		t.Fatalf("absorption failed: %v", e)
	}
	// Duplicates collapse.
	e = NewExpr(NewTerm(1, 2), NewTerm(2, 1))
	if e.NumTerms() != 1 {
		t.Fatalf("duplicate terms not collapsed: %v", e)
	}
	// Empty term dominates: the whole expression is True.
	e = NewExpr(NewTerm(1), NewTerm())
	if !e.IsTrue() {
		t.Fatalf("empty term should yield True, got %v", e)
	}
}

func TestOrAnd(t *testing.T) {
	x, y, z := Var(0), Var(1), Var(2)
	e := Lit(x).Or(Lit(y)) // x ∨ y
	f := e.And(Lit(z))     // (x∧z) ∨ (y∧z)
	if f.NumTerms() != 2 {
		t.Fatalf("And distribution wrong: %v", f)
	}
	if f.MaxTermSize() != 2 {
		t.Fatalf("MaxTermSize = %d, want 2", f.MaxTermSize())
	}

	if got := True().And(e); !got.Equal(e) {
		t.Errorf("True ∧ e = %v, want e", got)
	}
	if got := False().And(e); !got.IsFalse() {
		t.Errorf("False ∧ e = %v, want False", got)
	}
	if got := False().Or(e); !got.Equal(e) {
		t.Errorf("False ∨ e = %v, want e", got)
	}
	if got := True().Or(e); !got.IsTrue() {
		t.Errorf("True ∨ e = %v, want True", got)
	}
}

func TestAndVarMatchesAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		e := randomExpr(rng, 6, 4, 3)
		v := Var(rng.Intn(6))
		if got, want := e.AndVar(v), e.And(Lit(v)); !got.Equal(want) {
			t.Fatalf("AndVar(%v, %v) = %v, want %v", e, v, got, want)
		}
	}
}

// TestOrAllMatchesFold checks the n-ary disjunction against a left fold of
// Or on 10,000 random groups of DNFs, and that it leaves its operands'
// terms untouched.
func TestOrAllMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10_000; i++ {
		es := make([]Expr, rng.Intn(6))
		before := make([]string, len(es))
		for j := range es {
			es[j] = randomExpr(rng, 8, 5, 4)
			before[j] = es[j].String()
		}
		want := False()
		for _, e := range es {
			want = want.Or(e)
		}
		if got := OrAll(es...); !got.Equal(want) {
			t.Fatalf("OrAll(%v) = %v, fold of Or = %v", es, got, want)
		}
		for j, e := range es {
			if e.String() != before[j] {
				t.Fatalf("OrAll modified operand %d: %s, was %s", j, e, before[j])
			}
		}
	}
}

func TestEvalPaperExample(t *testing.T) {
	// The running example (Table 2, first output tuple):
	// (a0∧r0∧e0) ∨ (a0∧r1∧e1) ∨ (a0∧r2∧e3)
	reg := NewRegistry()
	a0 := reg.Intern("a0")
	r0, r1, r2 := reg.Intern("r0"), reg.Intern("r1"), reg.Intern("r2")
	e0, e1, e3 := reg.Intern("e0"), reg.Intern("e1"), reg.Intern("e3")
	phi := NewExpr(NewTerm(a0, r0, e0), NewTerm(a0, r1, e1), NewTerm(a0, r2, e3))

	// val(a0)=val(r0)=val(e0)=True makes the tuple correct (Example 2.3).
	val := NewValuation()
	val.Set(a0, true)
	val.Set(r0, true)
	val.Set(e0, true)
	if !phi.Eval(val) {
		t.Error("first conjunction satisfied but Eval = false")
	}

	// val(a0)=False falsifies every term.
	val2 := NewValuation()
	val2.Set(a0, false)
	for _, v := range []Var{r0, r1, r2, e0, e1, e3} {
		val2.Set(v, true)
	}
	if phi.Eval(val2) {
		t.Error("a0=False should falsify the expression")
	}
}

func TestSimplify(t *testing.T) {
	x, y, z := Var(0), Var(1), Var(2)
	e := NewExpr(NewTerm(x, y), NewTerm(z))

	val := NewValuation()
	val.Set(x, true)
	got := e.Simplify(val)
	want := NewExpr(NewTerm(y), NewTerm(z))
	if !got.Equal(want) {
		t.Errorf("Simplify x=true: got %v, want %v", got, want)
	}

	val.Set(z, false)
	got = e.Simplify(val)
	want = NewExpr(NewTerm(y))
	if !got.Equal(want) {
		t.Errorf("Simplify x=true,z=false: got %v, want %v", got, want)
	}

	val.Set(y, true)
	if got := e.Simplify(val); !got.IsTrue() {
		t.Errorf("Simplify to True failed: got %v", got)
	}

	all := NewValuation()
	all.Set(x, false)
	all.Set(z, false)
	if got := e.Simplify(all); !got.IsFalse() {
		t.Errorf("Simplify to False failed: got %v", got)
	}

	if got := e.Simplify(NewValuation()); !got.Equal(e) {
		t.Errorf("Simplify with empty valuation changed the expression")
	}
}

// The core soundness property (DESIGN.md §6): simplification commutes with
// evaluation. For any expression, partial valuation p and total valuation w
// extending p, eval(simplify(e,p), w) == eval(e, w).
func TestSimplifySoundnessProperty(t *testing.T) {
	const nvars = 8
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, nvars, 6, 4)
		total := randomValuation(r, nvars)
		// Partial valuation: reveal a random subset of total.
		partial := NewValuation()
		for v := 0; v < nvars; v++ {
			if r.Intn(2) == 0 {
				value, _ := total.Get(Var(v))
				partial.Set(Var(v), value)
			}
		}
		simplified := e.Simplify(partial)
		return simplified.Eval(total) == e.Eval(total)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Canonicalization must preserve semantics: a raw term set and its
// canonical form evaluate identically under every valuation.
func TestCanonicalizePreservesSemanticsExhaustive(t *testing.T) {
	const nvars = 4
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		nt := 1 + rng.Intn(4)
		raw := make([]Term, 0, nt)
		for i := 0; i < nt; i++ {
			size := 1 + rng.Intn(3)
			vars := make([]Var, 0, size)
			for j := 0; j < size; j++ {
				vars = append(vars, Var(rng.Intn(nvars)))
			}
			raw = append(raw, NewTerm(vars...))
		}
		canon := NewExpr(raw...)
		// Exhaustively check all 2^nvars valuations.
		for mask := 0; mask < 1<<nvars; mask++ {
			val := NewValuation()
			for v := 0; v < nvars; v++ {
				val.Set(Var(v), mask&(1<<v) != 0)
			}
			rawTrue := false
			for _, tm := range raw {
				all := true
				for _, v := range tm {
					if value, _ := val.Get(v); !value {
						all = false
						break
					}
				}
				if all {
					rawTrue = true
					break
				}
			}
			if canon.Eval(val) != rawTrue {
				t.Fatalf("canonicalization changed semantics: raw=%v canon=%v mask=%b", raw, canon, mask)
			}
		}
	}
}

func TestVarsAndContains(t *testing.T) {
	e := NewExpr(NewTerm(3, 1), NewTerm(2))
	vars := e.Vars()
	want := []Var{1, 2, 3}
	if len(vars) != len(want) {
		t.Fatalf("Vars() = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars() = %v, want %v", vars, want)
		}
	}
	if !e.ContainsVar(2) || e.ContainsVar(5) {
		t.Error("ContainsVar wrong")
	}
}

func TestFormat(t *testing.T) {
	reg := NewRegistry()
	a := reg.Intern("a0")
	b := reg.Intern("r0")
	e := NewExpr(NewTerm(a, b), NewTerm(a))
	// Absorption leaves just a0.
	if got := e.Format(reg); got != "a0" {
		t.Errorf("Format = %q, want %q", got, "a0")
	}
	e2 := NewExpr(NewTerm(a, b))
	if got := e2.Format(reg); got != "(a0 ∧ r0)" {
		t.Errorf("Format = %q", got)
	}
	if got := True().Format(reg); got != "true" {
		t.Errorf("Format(true) = %q", got)
	}
	if got := False().Format(reg); got != "false" {
		t.Errorf("Format(false) = %q", got)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	a := reg.Intern("a")
	if got := reg.Intern("a"); got != a {
		t.Error("Intern not idempotent")
	}
	b := reg.Intern("b")
	if a == b {
		t.Error("distinct names must get distinct vars")
	}
	if reg.Name(a) != "a" || reg.Name(b) != "b" {
		t.Error("Name round-trip failed")
	}
	if v, ok := reg.Lookup("b"); !ok || v != b {
		t.Error("Lookup failed")
	}
	if _, ok := reg.Lookup("zzz"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if reg.Len() != 2 {
		t.Errorf("Len = %d, want 2", reg.Len())
	}
	f := reg.Fresh()
	if f == a || f == b {
		t.Error("Fresh collided")
	}
}

func TestValuationBasics(t *testing.T) {
	val := NewValuation()
	if val.Len() != 0 {
		t.Error("new valuation not empty")
	}
	val.Set(1, true)
	val.Set(2, false)
	if v, ok := val.Get(1); !ok || !v {
		t.Error("Get(1) wrong")
	}
	if v, ok := val.Get(2); !ok || v {
		t.Error("Get(2) wrong")
	}
	if _, ok := val.Get(3); ok {
		t.Error("Get(3) should be unassigned")
	}
	if !val.Assigned(1) || val.Assigned(3) {
		t.Error("Assigned wrong")
	}

	clone := val.Clone()
	clone.Set(1, false)
	if v, _ := val.Get(1); !v {
		t.Error("Clone is not independent")
	}

	with := val.With(3, true)
	if val.Assigned(3) {
		t.Error("With mutated the receiver")
	}
	if v, ok := with.Get(3); !ok || !v {
		t.Error("With did not assign")
	}

	vars := val.Vars()
	if len(vars) != 2 || vars[0] != 1 || vars[1] != 2 {
		t.Errorf("Vars = %v", vars)
	}

	// Zero value is usable.
	var zero Valuation
	if _, ok := zero.Get(1); ok {
		t.Error("zero valuation should have no assignments")
	}
	zero.Set(4, true)
	if v, ok := zero.Get(4); !ok || !v {
		t.Error("zero valuation Set/Get failed")
	}

	// Nil receiver reads are safe.
	var nilVal *Valuation
	if _, ok := nilVal.Get(1); ok {
		t.Error("nil valuation Get should report unassigned")
	}
	if nilVal.Len() != 0 {
		t.Error("nil valuation Len should be 0")
	}
}
