package resolve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/oracle"
	"qres/internal/uncertain"
)

// seedRepository fills a repository with off-provenance training records
// (metadata drawn from the same source universe the synthetic workload
// uses) so online learners start above MinTrain.
func seedRepository(n int) *Repository {
	repo := NewRepository()
	for i := 0; i < n; i++ {
		repo.Add(map[string]string{
			"source":   fmt.Sprintf("src-%d", i%5),
			"rel_name": "facts",
		}, i%3 == 0)
	}
	return repo
}

// TestWarmRetrainMatchesFullRetrain runs the same online session once with
// the warm-started retrain path and once with fullRetrain: probe
// sequences, probe counts and resolved answers must be bit-identical,
// because encoder reuse and append-only encoding reproduce exactly the
// matrix a cold rebuild encodes.
func TestWarmRetrainMatchesFullRetrain(t *testing.T) {
	udb, res := syntheticWorkload(t, 40, 12, 6, 4, 4242)
	gt := uncertain.GenerateFixed(udb, 0.5, 4243)
	seed := seedRepository(30)

	run := func(full bool) ([]boolexpr.Var, *Outcome) {
		rec := oracle.NewRecorder(oracle.NewGroundTruth(gt.Val))
		sess, err := NewSession(udb, res, rec, seed.Clone(), Config{
			Utility: General{}, Learning: LearnOnline, Seed: 9,
			MinTrain: 20, Trees: 25, fullRetrain: full,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rec.Probes(), out
	}

	warmProbes, warmOut := run(false)
	fullProbes, fullOut := run(true)
	if !reflect.DeepEqual(warmProbes, fullProbes) {
		t.Fatalf("probe sequences diverge:\nwarm: %v\nfull: %v", warmProbes, fullProbes)
	}
	if !reflect.DeepEqual(warmOut.Answers, fullOut.Answers) {
		t.Fatal("resolved answers diverge between warm and full retrain")
	}
	if warmOut.Probes != fullOut.Probes {
		t.Fatalf("probe counts diverge: warm %d, full %d", warmOut.Probes, fullOut.Probes)
	}
}

// TestWarmRetrainProbsMatchFull drives two learners over the same
// observation stream — one warm, one always cold — and compares every
// probability estimate after every retrain. This pins the Learner-level
// equivalence directly, independent of session scoring.
func TestWarmRetrainProbsMatchFull(t *testing.T) {
	udb, res := syntheticWorkload(t, 30, 8, 5, 3, 555)
	gt := uncertain.GenerateFixed(udb, 0.5, 556)
	vars := res.UniqueVars()

	mk := func(full bool) *Learner {
		return NewLearner(udb, seedRepository(25), LearnerConfig{
			Mode: LearnOnline, Trees: 20, MinTrain: 20, Seed: 3,
			fullRetrain: full,
		})
	}
	warm, cold := mk(false), mk(true)
	for step, v := range vars {
		ans, _ := gt.Val.Get(v)
		warm.Observe(v, ans)
		cold.Observe(v, ans)
		for _, u := range vars {
			if pw, pc := warm.Prob(u), cold.Prob(u); pw != pc {
				t.Fatalf("step %d: Prob(%d) warm %v != cold %v", step, u, pw, pc)
			}
		}
	}
	if warm.Retrains() != cold.Retrains() {
		t.Fatalf("retrain counts diverge: warm %d, cold %d", warm.Retrains(), cold.Retrains())
	}
}

// TestProbBatchMatchesProb checks the batched learner reads against the
// scalar path across modes: trained online forest, untrained (below
// MinTrain), and KnownProbs bypass.
func TestProbBatchMatchesProb(t *testing.T) {
	udb, res := syntheticWorkload(t, 30, 8, 5, 3, 777)
	vars := res.UniqueVars()

	trained := NewLearner(udb, seedRepository(40), LearnerConfig{
		Mode: LearnOnline, Trees: 20, MinTrain: 20, Seed: 1,
	})
	untrained := NewLearner(udb, seedRepository(5), LearnerConfig{
		Mode: LearnOnline, Trees: 20, MinTrain: 20, Seed: 1,
	})
	known := NewLearner(udb, NewRepository(), LearnerConfig{
		Mode:       LearnOnline,
		KnownProbs: map[boolexpr.Var]float64{vars[0]: 0.9},
	})
	for name, l := range map[string]*Learner{
		"trained": trained, "untrained": untrained, "known": known,
	} {
		probs := l.ProbBatch(vars, nil)
		for i, v := range vars {
			if want := l.Prob(v); probs[i] != want {
				t.Fatalf("%s: ProbBatch[%d] = %v, Prob = %v", name, i, probs[i], want)
			}
		}
		unc := l.UncertaintyBatch(vars, nil)
		for i, v := range vars {
			if want := l.Uncertainty(v); unc[i] != want {
				t.Fatalf("%s: UncertaintyBatch[%d] = %v, Uncertainty = %v", name, i, unc[i], want)
			}
		}
	}
}

// TestLearnerConcurrentReadsDuringRetrain hammers Prob/ProbBatch/
// UncertaintyBatch from reader goroutines while the main goroutine keeps
// observing answers (each one an online retrain). Run under -race this
// verifies the snapshot discipline: readers never see a model mid-update.
func TestLearnerConcurrentReadsDuringRetrain(t *testing.T) {
	udb, res := syntheticWorkload(t, 40, 10, 5, 3, 888)
	gt := uncertain.GenerateFixed(udb, 0.5, 889)
	vars := res.UniqueVars()

	l := NewLearner(udb, seedRepository(25), LearnerConfig{
		Mode: LearnOnline, Trees: 15, MinTrain: 20, Seed: 2,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var probs, unc []float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 3 {
				case 0:
					for _, v := range vars {
						if p := l.Prob(v); p < 0 || p > 1 {
							t.Errorf("Prob out of range: %v", p)
							return
						}
					}
				case 1:
					probs = l.ProbBatch(vars, probs)
				default:
					unc = l.UncertaintyBatch(vars, unc)
				}
			}
		}(r)
	}
	for _, v := range vars {
		ans, _ := gt.Val.Get(v)
		l.Observe(v, ans)
	}
	close(stop)
	wg.Wait()
}
