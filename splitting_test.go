package qres_test

import (
	"errors"
	"strings"
	"testing"

	"qres"
)

// joinDB builds tables a(k, x) and b(k) whose 13 rows match pairwise on
// k, so joinSQL returns one output row whose provenance is 13
// two-variable terms: a CNF of 2^13 clauses, past the default bound of
// 4096, so the "qvalue" strategy must split it.
func joinDB(t *testing.T) *qres.DB {
	t.Helper()
	db := qres.New()
	db.MustCreateTable("a", qres.Column{Name: "k", Kind: qres.Int}, qres.Column{Name: "x", Kind: qres.String})
	db.MustCreateTable("b", qres.Column{Name: "k", Kind: qres.Int})
	for i := 0; i < 13; i++ {
		db.MustInsert("a", []any{i, "x"}, nil)
		db.MustInsert("b", []any{i}, nil)
	}
	return db
}

const joinSQL = `SELECT DISTINCT a.x FROM a, b WHERE a.k = b.k`

// allIncorrect answers every probe "incorrect" and logs what it was asked.
type allIncorrect struct{ asked []qres.TupleRef }

func (o *allIncorrect) Probe(ref qres.TupleRef) (bool, error) {
	o.asked = append(o.asked, ref)
	return false, nil
}

// The split bound decides how many parts an oversized expression becomes
// (the split span's "parts"); without splitting, Q-Value cannot build the
// CNF and the session fails.
func TestSplitOptions(t *testing.T) {
	cases := []struct {
		name  string
		opts  []qres.Option
		parts int
		err   string
	}{
		{"default bound", nil, 2, ""},
		{"bound 2", []qres.Option{qres.WithSplitBound(2)}, 7, ""},
		{"bound 4", []qres.Option{qres.WithSplitBound(4)}, 4, ""},
		{"without splitting", []qres.Option{qres.WithoutSplitting()}, 0, "CNF of expression 0 exceeds 4096 clauses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := joinDB(t)
			res, err := db.Query(joinSQL)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 1 || !strings.Contains(res.Provenance(0), "∨") {
				t.Fatalf("want one row with disjunctive provenance, got %d rows: %v", res.Len(), res)
			}
			parts := -1
			split := qres.ObserverFunc(func(ev qres.TraceEvent) {
				if ev.Stage == "split" {
					parts, _ = ev.Attrs["parts"].(int)
				}
			})
			opts := append([]qres.Option{qres.WithStrategy("qvalue"), qres.WithLearning("ep"),
				qres.WithObserver(split)}, tc.opts...)
			orc := &allIncorrect{}
			out, err := db.Resolve(res, orc, opts...)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if parts != tc.parts {
				t.Errorf("split into %d parts, want %d", parts, tc.parts)
			}
			// Every term must be falsified, one probe each.
			if out.Probes != 13 || out.IsCorrect(0) {
				t.Errorf("resolved with %d probes, correct=%t; want 13 probes, incorrect", out.Probes, out.IsCorrect(0))
			}
		})
	}
}

// Answers recorded in a shared repository round-trip through Known, and a
// session over the repository takes them from there instead of asking
// the oracle.
func TestRepositoryRecordAndKnown(t *testing.T) {
	db := joinDB(t)
	res, err := db.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	repo := db.ProbeRepository()
	recorded := make(map[qres.TupleRef]bool)
	for i := 0; i < 6; i++ {
		ref := qres.TupleRef{Table: "a", Index: i}
		if err := repo.Record(ref, false); err != nil {
			t.Fatal(err)
		}
		recorded[ref] = true
	}
	if correct, known := repo.Known(qres.TupleRef{Table: "a", Index: 0}); !known || correct {
		t.Errorf("Known(a[0]) = (%t, %t), want (false, true)", correct, known)
	}
	if _, known := repo.Known(qres.TupleRef{Table: "b", Index: 0}); known {
		t.Error("Known(b[0]) reports an answer nobody recorded")
	}
	if err := repo.Record(qres.TupleRef{Table: "c", Index: 0}, true); !errors.Is(err, qres.ErrUnknownVariable) {
		t.Errorf("Record of a missing tuple: %v, want ErrUnknownVariable", err)
	}

	orc := &allIncorrect{}
	out, err := db.Resolve(res, orc, qres.WithStrategy("general"), qres.WithLearning("ep"),
		qres.WithRepository(repo))
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range orc.asked {
		if recorded[ref] {
			t.Errorf("oracle asked about %v, which the repository records", ref)
		}
	}
	// The six recorded answers falsify six terms; each of the other seven
	// takes one probe.
	if out.Probes != 7 || out.IsCorrect(0) {
		t.Errorf("resolved with %d probes, correct=%t; want 7 probes, incorrect", out.Probes, out.IsCorrect(0))
	}
}

// PlanShape renders the plan after rewriting: the single-table predicate
// is pushed below the join, where it shows as a starred selection.
func TestPlanShapeShowsPushedSelection(t *testing.T) {
	db := joinDB(t)
	res, err := db.Query(`SELECT DISTINCT a.x FROM a, b WHERE a.k = b.k AND a.k < 5`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.PlanShape(), "Distinct(Join(Select*(Scan),Scan))"; got != want {
		t.Errorf("PlanShape = %q, want %q", got, want)
	}
}
