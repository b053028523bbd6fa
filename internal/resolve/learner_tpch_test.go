package resolve_test

import (
	"testing"

	"qres/internal/bench"
	"qres/internal/boolexpr"
	"qres/internal/learn"
	"qres/internal/obs"
	"qres/internal/resolve"
)

// TestWarmRetrainNewValuesMatchesFull drives a warm and a full-retrain
// online Learner over TPC-H Q3 answers on a seeded repository, built as
// BenchmarkRetrain builds it. Almost every answered tuple brings an
// attribute value the encoder has not seen, so the warm Learner must
// extend its encoder instead of rebuilding it: after every Observe, Prob
// and Uncertainty agree bit for bit on every provenance variable, and
// every retrain after construction counts as an encoder reuse.
func TestWarmRetrainNewValuesMatchesFull(t *testing.T) {
	sc := bench.Scale{TPCHSF: 0.003, NELLAthletes: 50, InitialProbes: 80, Trees: 10, Reps: 1}
	w, err := bench.LoadTPCH("Q3", sc, bench.FixedGroundTruth(0.5), 7)
	if err != nil {
		t.Fatal(err)
	}
	baseRepo := w.Repository(sc.InitialProbes, 7)
	vars := w.Result.UniqueVars()
	var stream []boolexpr.Var
	for _, v := range vars {
		if _, known := baseRepo.Answer(v); !known {
			stream = append(stream, v)
		}
	}
	const steps = 30
	if len(stream) < steps {
		t.Fatalf("only %d stream variables", len(stream))
	}
	stream = stream[:steps]

	lal := learn.TrainLAL(learn.LALConfig{Tasks: 3, CandidatesPerState: 2, Seed: 1, Workers: 1})
	reg := obs.NewRegistry()
	warmCfg := resolve.LearnerConfig{
		Mode: resolve.LearnOnline, Trees: sc.Trees, Seed: 7, LAL: lal,
		Obs: obs.New("warm", nil, reg),
	}
	fullCfg := warmCfg
	fullCfg.Obs = nil
	resolve.UseFullRetrain(&fullCfg)
	repo := baseRepo.Clone()
	warm := resolve.NewLearner(w.DB, repo, warmCfg)
	full := resolve.NewLearner(w.DB, baseRepo.Clone(), fullCfg)

	grew, card := 0, cardinality(repo)
	for step, v := range stream {
		ans, _ := w.GT.Val.Get(v)
		warm.Observe(v, ans)
		full.Observe(v, ans)
		if c := cardinality(repo); c > card {
			grew, card = grew+1, c
		}
		for _, u := range vars {
			if pw, pf := warm.Prob(u), full.Prob(u); pw != pf {
				t.Fatalf("step %d: Prob(%d) warm %v != full %v", step, u, pw, pf)
			}
			if uw, uf := warm.Uncertainty(u), full.Uncertainty(u); uw != uf {
				t.Fatalf("step %d: Uncertainty(%d) warm %v != full %v", step, u, uw, uf)
			}
		}
	}
	if grew < steps/2 {
		t.Fatalf("only %d of %d answers brought a new attribute value", grew, steps)
	}
	if got := reg.Counter("encoder_reuse", "warm").Value(); got != int64(warm.Retrains()-1) {
		t.Fatalf("encoder_reuse = %d, want every retrain after construction (%d)", got, warm.Retrains()-1)
	}
	if warm.Retrains() != full.Retrains() {
		t.Fatalf("retrain counts diverge: warm %d, full %d", warm.Retrains(), full.Retrains())
	}
}

// cardinality is the number of distinct (attribute, value) pairs in the
// repository's records.
func cardinality(repo *resolve.Repository) int {
	enc := learn.NewEncoder(repo.Metas())
	n := 0
	for f := 0; f < enc.NumFeatures(); f++ {
		n += enc.Cardinality(f)
	}
	return n
}
