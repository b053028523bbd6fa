package bench

import (
	"strings"
	"testing"

	"qres/internal/resolve"
)

// tinyScale keeps harness tests fast while exercising every code path.
func tinyScale() Scale {
	return Scale{TPCHSF: 0.0012, NELLAthletes: 60, InitialProbes: 40, Trees: 10, Reps: 1}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	r.AddRow("row1", 1, 2.5)
	r.AddTextRow("row2", "7", "-")
	r.Note("a note with %d", 3)

	var tbl strings.Builder
	r.WriteTable(&tbl)
	for _, want := range []string{"== x: demo ==", "row1", "2.500", "row2", "-", "note: a note with 3"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}

	var csv strings.Builder
	r.WriteCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "label,a,b" {
		t.Errorf("csv = %q", csv.String())
	}

	if v, ok := r.Value("row1", "b"); !ok || v != 2.5 {
		t.Errorf("Value(row1,b) = %f, %t", v, ok)
	}
	if _, ok := r.Value("row2", "b"); ok {
		t.Error("text rows must not resolve as numeric values")
	}
	if _, ok := r.Value("row1", "zzz"); ok {
		t.Error("unknown column must not resolve")
	}
}

func TestCSVEscaping(t *testing.T) {
	r := &Report{ID: "x", Columns: []string{`we"ird`}}
	r.AddTextRow("a,b", `q"t`)
	var csv strings.Builder
	r.WriteCSV(&csv)
	out := csv.String()
	if !strings.Contains(out, `"we""ird"`) || !strings.Contains(out, `"a,b"`) {
		t.Errorf("csv escaping wrong: %q", out)
	}
}

func TestWorkloadPreparation(t *testing.T) {
	sc := tinyScale()
	w, err := LoadTPCH("Q10", sc, FixedGroundTruth(0.5), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Result.Rows) == 0 {
		t.Fatal("empty workload result")
	}
	// Ground truth covers every variable.
	for _, v := range w.DB.AllVars() {
		if !w.GT.Val.Assigned(v) {
			t.Fatal("ground truth incomplete")
		}
	}
	// Repository draws off-provenance tuples, plus the always-known
	// region answers (5 tuples).
	repo := w.Repository(30, 1)
	if repo.Len() != 35 {
		t.Fatalf("repository len = %d, want 30 sampled + 5 region", repo.Len())
	}
	inProv := make(map[string]bool)
	for _, v := range w.Result.UniqueVars() {
		inProv[w.DB.Registry().Name(v)] = true
	}
	for _, rec := range repo.Records() {
		if !rec.HasVar {
			continue
		}
		if w.DB.Registry().Name(rec.Var)[:6] == "region" {
			if !rec.Answer {
				t.Fatal("region tuples must be recorded correct")
			}
			continue
		}
		if inProv[w.DB.Registry().Name(rec.Var)] {
			t.Fatal("sampled repository probe overlaps query provenance")
		}
	}
}

func TestWorkloadSubset(t *testing.T) {
	sc := tinyScale()
	w, err := LoadTPCH("Q3", sc, FixedGroundTruth(0.5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Result.Rows) < 4 {
		t.Skip("result too small to subset at this scale")
	}
	n := len(w.Result.Rows) / 2
	sub := w.Subset(n, 1)
	if len(sub.Result.Rows) != n {
		t.Fatalf("subset rows = %d, want %d", len(sub.Result.Rows), n)
	}
	// Unchanged when n >= |result|.
	same := w.Subset(len(w.Result.Rows)+10, 1)
	if same != w {
		t.Error("oversized subset must return the workload unchanged")
	}
}

func TestWorkloadRunAndAverage(t *testing.T) {
	sc := tinyScale()
	w, err := LoadNELL("MS2", sc, RDTGroundTruth(), 5)
	if err != nil {
		t.Fatal(err)
	}
	probes, st, err := w.RunConfig(resolveGeneralEP(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if probes <= 0 || st.Probes != probes {
		t.Fatalf("probes = %d, stats = %d", probes, st.Probes)
	}
	mean, err := w.AverageProbes(resolveGeneralEP(), 0, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 {
		t.Fatal("mean probes must be positive")
	}
}

func TestLookupAndRegistry(t *testing.T) {
	if len(Experiments()) < 12 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
	if _, ok := Lookup("fig5"); !ok {
		t.Fatal("fig5 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id resolved")
	}
	seen := make(map[string]bool)
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestTable3Tiny(t *testing.T) {
	rep, err := Table3(tinyScale(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rep.Rows))
	}
	// Q8 joins 8 relations; with the certain region tuple simplified out
	// of the provenance, effective terms have 7 variables.
	for _, row := range rep.Rows {
		if row.Label == "TPC-H Q8" && row.Text[2] != "7" {
			t.Errorf("Q8 effective term size = %s, want 7", row.Text[2])
		}
	}
}

func TestFig7Tiny(t *testing.T) {
	rep, err := Fig7(tinyScale(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Columns) != 5 {
		t.Fatalf("columns = %v", rep.Columns)
	}
	// Shape: every solution issues more probes at p=0.9 than at p=0.3
	// (higher probabilities leave fewer easy False terms).
	for _, label := range []string{"Greedy", "Q-Value+EP", "General+EP"} {
		lo, ok1 := rep.Value(label, "p=0.3")
		hi, ok2 := rep.Value(label, "p=0.9")
		if !ok1 || !ok2 {
			t.Fatalf("missing cells for %s", label)
		}
		if hi < lo {
			t.Errorf("%s: p=0.9 (%f) should need at least as many probes as p=0.3 (%f)", label, hi, lo)
		}
	}
}

func TestAblationParallelTiny(t *testing.T) {
	rep, err := AblationParallel(tinyScale(), 19)
	if err != nil {
		t.Fatal(err)
	}
	seqTotal, _ := rep.Value("sequential", "total probes")
	parCritical, _ := rep.Value("parallel", "critical path")
	parTotal, _ := rep.Value("parallel", "total probes")
	if parCritical > parTotal {
		t.Error("critical path exceeds total")
	}
	if seqTotal <= 0 || parTotal <= 0 {
		t.Error("degenerate probe counts")
	}
}

func resolveGeneralEP() resolve.Config {
	return resolve.Config{Utility: resolve.General{}, Learning: resolve.LearnEP}
}

// BenchmarkNewSessionQValue measures session construction for NELL MS1
// with Q-Value + EP over one 300-athlete knowledge base, the size of a
// perfbench nell-qvalue session: reusing known answers, the split pass
// with its trial CNF conversions, and the initial CNFs of every part.
func BenchmarkNewSessionQValue(b *testing.B) {
	w, err := LoadNELL("MS1", Scale{NELLAthletes: 300}, RDTGroundTruth(), 17)
	if err != nil {
		b.Fatal(err)
	}
	cfg := resolve.Config{Utility: resolve.QValue{}, Learning: resolve.LearnEP, Seed: 23}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resolve.NewSession(w.DB, w.Result, w.Oracle(), resolve.NewRepository(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
