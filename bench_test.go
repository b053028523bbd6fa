package qres_test

// This file holds the testing.B entry points that regenerate every table
// and figure of the paper's evaluation (one benchmark per experiment; see
// DESIGN.md for the experiment index), plus micro-benchmarks of the
// framework's hot components. The experiment benchmarks run the harness at
// a reduced "bench" scale so the full suite completes in minutes; use
// cmd/qres-bench for the quick- and full-scale regenerations with printed
// report tables.

import (
	"testing"

	"qres/internal/bench"
	"qres/internal/boolexpr"
	"qres/internal/engine"
	"qres/internal/learn"
	"qres/internal/resolve"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

// benchScale keeps each experiment iteration in the seconds range.
func benchScale() bench.Scale {
	return bench.Scale{TPCHSF: 0.0012, NELLAthletes: 60, InitialProbes: 60, Trees: 10, Reps: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	sc := benchScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(sc, int64(2023+i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// One benchmark per paper table/figure (the per-experiment index lives in
// DESIGN.md; paper-vs-measured numbers in EXPERIMENTS.md).

func BenchmarkTable3QueryStats(b *testing.B)     { runExperiment(b, "table3") }
func BenchmarkTable4ComponentTimes(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig5Overall(b *testing.B)          { runExperiment(b, "fig5") }
func BenchmarkFig6OutputSize(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkFig7Probabilities(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig8Splitting(b *testing.B)        { runExperiment(b, "fig8") }
func BenchmarkFig9Learning(b *testing.B)         { runExperiment(b, "fig9") }

// Ablation benchmarks for the design choices called out in DESIGN.md §5.

func BenchmarkAblationSelector(b *testing.B)   { runExperiment(b, "ablation-selector") }
func BenchmarkAblationModel(b *testing.B)      { runExperiment(b, "ablation-model") }
func BenchmarkAblationSplitBound(b *testing.B) { runExperiment(b, "ablation-splitbound") }
func BenchmarkAblationTrees(b *testing.B)      { runExperiment(b, "ablation-trees") }
func BenchmarkAblationParallel(b *testing.B)   { runExperiment(b, "ablation-parallel") }

// Component micro-benchmarks.

// BenchmarkProvenanceEvaluation measures SPJU evaluation with provenance
// tracking on the paper's running example.
func BenchmarkProvenanceEvaluation(b *testing.B) {
	udb := testdb.PaperUncertainDB()
	plan := testdb.PaperQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(udb, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplify measures partial-valuation simplification of a 64-term
// 4-DNF, the per-probe bookkeeping cost.
func BenchmarkSimplify(b *testing.B) {
	terms := make([]boolexpr.Term, 64)
	for i := range terms {
		terms[i] = boolexpr.NewTerm(
			boolexpr.Var(i), boolexpr.Var(64+i%16), boolexpr.Var(96+i%8), boolexpr.Var(110))
	}
	e := boolexpr.NewExpr(terms...)
	val := boolexpr.NewValuation()
	val.Set(110, true)
	val.Set(96, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Simplify(val)
	}
}

// BenchmarkToCNF measures the bounded DNF→CNF conversion Q-Value depends
// on (an 8-term 3-DNF, the typical post-split size).
func BenchmarkToCNF(b *testing.B) {
	terms := make([]boolexpr.Term, 8)
	for i := range terms {
		terms[i] = boolexpr.NewTerm(boolexpr.Var(3*i), boolexpr.Var(3*i+1), boolexpr.Var(3*i+2))
	}
	e := boolexpr.NewExpr(terms...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := e.ToCNF(0); !ok {
			b.Fatal("conversion failed")
		}
	}
}

// BenchmarkToCNFAbort measures a trial conversion of an oversized
// expression at the default clause bound (4096), as the split pass makes
// before it splits: 16 terms, each of two private variables and one of
// four shared ones, so rounds absorb clauses and the bound still trips.
func BenchmarkToCNFAbort(b *testing.B) {
	terms := make([]boolexpr.Term, 16)
	for i := range terms {
		terms[i] = boolexpr.NewTerm(boolexpr.Var(3*i), boolexpr.Var(3*i+1), boolexpr.Var(1000+i%4))
	}
	e := boolexpr.NewExpr(terms...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := e.ToCNF(4096); ok {
			b.Fatal("conversion fit the bound")
		}
	}
}

// BenchmarkForestPredict measures per-candidate probability estimation.
func BenchmarkForestPredict(b *testing.B) {
	d := &learn.Dataset{}
	for i := 0; i < 400; i++ {
		d.Add([]int32{int32(i % 7), int32(i % 13), int32(i % 3)}, i%3 == 0)
	}
	f := learn.FitForest(d, learn.ForestConfig{Trees: 25, Seed: 1})
	x := []int32{3, 5, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.ProbTrue(x)
	}
}

// BenchmarkResolveSession measures a full resolution of the paper's
// running example with the General utility (EP learning).
func BenchmarkResolveSession(b *testing.B) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		b.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 3)
	orc := benchOracle{val: gt.Val}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, err := resolve.NewSession(udb, res, orc, nil,
			resolve.Config{Utility: resolve.General{}, Learning: resolve.LearnEP, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

type benchOracle struct{ val *boolexpr.Valuation }

func (o benchOracle) Probe(v boolexpr.Var) (bool, error) {
	answer, _ := o.val.Get(v)
	return answer, nil
}
