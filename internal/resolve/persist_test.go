package resolve

import (
	"bytes"
	"strings"
	"testing"

	"qres/internal/boolexpr"
)

func TestRepositorySaveLoadRoundTrip(t *testing.T) {
	reg := boolexpr.NewRegistry()
	a := reg.Intern("facts[0]")
	b := reg.Intern("facts[1]")

	repo := NewRepository()
	repo.AddVar(a, map[string]string{"source": "x"}, true)
	repo.AddVar(b, map[string]string{"source": "y"}, false)
	repo.Add(map[string]string{"source": "z"}, true) // metadata-only

	var buf bytes.Buffer
	if err := repo.SaveJSON(&buf, reg.Name); err != nil {
		t.Fatal(err)
	}

	back, err := LoadJSON(&buf, func(name string) (boolexpr.Var, bool) {
		return reg.Lookup(name)
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("Len = %d, want 3", back.Len())
	}
	if ans, ok := back.Answer(a); !ok || !ans {
		t.Error("answer for facts[0] lost")
	}
	if ans, ok := back.Answer(b); !ok || ans {
		t.Error("answer for facts[1] lost")
	}
	// The metadata-only record survives as training data.
	found := false
	for _, rec := range back.Records() {
		if !rec.HasVar && rec.Meta["source"] == "z" && rec.Answer {
			found = true
		}
	}
	if !found {
		t.Error("metadata-only record lost")
	}
}

func TestLoadJSONUnresolvedNamesDegradeToTraining(t *testing.T) {
	input := `{"var":"gone[0]","meta":{"source":"x"},"answer":true}` + "\n"
	repo, err := LoadJSON(strings.NewReader(input), func(string) (boolexpr.Var, bool) {
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 1 {
		t.Fatal("record lost")
	}
	if repo.Records()[0].HasVar {
		t.Error("unresolved name must not bind a variable")
	}
	// Nil resolver behaves the same.
	repo2, err := LoadJSON(strings.NewReader(input), nil)
	if err != nil || repo2.Len() != 1 || repo2.Records()[0].HasVar {
		t.Error("nil resolver handling wrong")
	}
}

func TestLoadJSONErrors(t *testing.T) {
	// Corruption followed by more well-formed data is damage, not a torn
	// trailing write, and must fail the restore.
	input := `{"answer":false}` + "\n" + "not json\n" + `{"answer":true}` + "\n"
	_, err := LoadJSON(strings.NewReader(input), nil)
	if err == nil {
		t.Fatal("mid-file garbage accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the damaged line 2", err)
	}
}

func TestLoadJSONSkipsTruncatedTrailingLine(t *testing.T) {
	// A torn trailing line — the signature of a crash mid-append to the
	// WAL — is skipped; every complete line before it is restored.
	input := `{"meta":{"source":"x"},"answer":true}` + "\n" +
		`{"meta":{"source":"y"},"answer":false}` + "\n" +
		`{"meta":{"source":"z"},"ans` // truncated mid-write
	repo, err := LoadJSON(strings.NewReader(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (torn line skipped)", repo.Len())
	}
	// A file that is nothing but one torn line restores to empty.
	repo2, err := LoadJSON(strings.NewReader("not json"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if repo2.Len() != 0 {
		t.Errorf("single torn line: len=%d, want 0", repo2.Len())
	}
}
