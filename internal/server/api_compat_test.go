package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// postRaw posts a raw JSON payload and decodes the response body into a
// generic map, returning it with the status code. Unlike doJSON it decodes
// error responses too, so tests can assert on the error body shape.
func postRaw(t *testing.T, url, payload string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, body
}

// errCode extracts the code from a {"error": {"code": ..., "message": ...}}
// body, failing the test if the body has any other shape.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("error body missing nested object: %v", body)
	}
	code, ok := e["code"].(string)
	if !ok || code == "" {
		t.Fatalf("error body missing code: %v", body)
	}
	if msg, ok := e["message"].(string); !ok || msg == "" {
		t.Fatalf("error body missing message: %v", body)
	}
	return code
}

// Every error response carries the documented {"error": {"code", "message"}}
// body, and the codes are the stable machine-readable names from the README
// error contract — clients dispatch on them, so they are part of the API.
func TestErrorCodeContract(t *testing.T) {
	_, base := startServer(t, Config{MaxSessions: 1})

	if st, body := postRaw(t, base+"/v1/sessions", `{"query": ""}`); st != http.StatusBadRequest {
		t.Errorf("empty query: status %d", st)
	} else if c := errCode(t, body); c != CodeBadRequest {
		t.Errorf("empty query: code %q, want %q", c, CodeBadRequest)
	}

	resp, err := http.Get(base + "/v1/sessions/deadbeef/probe")
	if err != nil {
		t.Fatal(err)
	}
	var nf map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&nf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d", resp.StatusCode)
	} else if c := errCode(t, nf); c != CodeUnknownSession {
		t.Errorf("unknown session: code %q, want %q", c, CodeUnknownSession)
	}

	var info SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", CreateSessionRequest{Query: paperSQL}, &info, http.StatusCreated)

	// Session cap of one: the next create is rejected with the capacity code.
	if st, body := postRaw(t, base+"/v1/sessions", `{"query": "SELECT Organization FROM Roles"}`); st != http.StatusTooManyRequests {
		t.Errorf("capacity: status %d", st)
	} else if c := errCode(t, body); c != CodeCapacity {
		t.Errorf("capacity: code %q, want %q", c, CodeCapacity)
	}

	sessURL := base + "/v1/sessions/" + info.ID

	// Answering before fetching a probe: no_probe_pending.
	if st, body := postRaw(t, sessURL+"/answer", `{"table": "Roles", "index": 0, "answer": true}`); st != http.StatusConflict {
		t.Errorf("no probe pending: status %d", st)
	} else if c := errCode(t, body); c != CodeNoProbePending {
		t.Errorf("no probe pending: code %q, want %q", c, CodeNoProbePending)
	}

	var pr ProbeResponse
	mustJSON(t, "GET", sessURL+"/probe", nil, &pr, http.StatusOK)
	if pr.Done {
		t.Fatal("session done before any answer")
	}

	// Answering a tuple that does not exist: unknown_variable.
	if st, body := postRaw(t, sessURL+"/answer", `{"table": "NoSuchTable", "index": 0, "answer": true}`); st != http.StatusBadRequest {
		t.Errorf("unknown variable: status %d", st)
	} else if c := errCode(t, body); c != CodeUnknownVariable {
		t.Errorf("unknown variable: code %q, want %q", c, CodeUnknownVariable)
	}

	// Answering a tuple other than the outstanding probe: probe_mismatch.
	other := AnswerRequest{Table: "Roles", Index: 0}
	if pr.Probe.Table == other.Table && pr.Probe.Index == other.Index {
		other.Index = 1
	}
	raw, _ := json.Marshal(other)
	if st, body := postRaw(t, sessURL+"/answer", string(raw)); st != http.StatusConflict {
		t.Errorf("probe mismatch: status %d", st)
	} else if c := errCode(t, body); c != CodeProbeMismatch {
		t.Errorf("probe mismatch: code %q, want %q", c, CodeProbeMismatch)
	}
}

// The create API accepts both the deprecated flat worker fields and the
// new nested parallelism object, and SessionInfo always emits the new
// shape with deprecated fields folded in.
func TestParallelismFieldCompat(t *testing.T) {
	_, base := startServer(t, Config{})

	// Old shape: flat forest_workers still parses and is folded into the
	// emitted parallelism object.
	st, body := postRaw(t, base+"/v1/sessions",
		`{"query": "SELECT Organization FROM Roles", "strategy": "general", "learning": "offline", "trees": 5, "forest_workers": 3}`)
	if st != http.StatusCreated {
		t.Fatalf("create with forest_workers: status %d (%v)", st, body)
	}
	par, ok := body["parallelism"].(map[string]any)
	if !ok {
		t.Fatalf("SessionInfo missing parallelism object: %v", body)
	}
	if f, _ := par["forest"].(float64); int(f) != 3 {
		t.Errorf("deprecated forest_workers=3 not folded into parallelism.forest: %v", par)
	}

	// New shape: nested parallelism round-trips, and the new field wins
	// when both are present.
	st, body = postRaw(t, base+"/v1/sessions",
		`{"query": "SELECT Organization FROM Roles", "strategy": "general", "learning": "offline", "trees": 5, "forest_workers": 3, "parallelism": {"forest": 2, "shards": 1}}`)
	if st != http.StatusCreated {
		t.Fatalf("create with parallelism: status %d (%v)", st, body)
	}
	par, _ = body["parallelism"].(map[string]any)
	if f, _ := par["forest"].(float64); int(f) != 2 {
		t.Errorf("parallelism.forest should win over forest_workers: %v", par)
	}
	if s, _ := par["shards"].(float64); int(s) != 1 {
		t.Errorf("parallelism.shards not echoed: %v", par)
	}
	if g, _ := body["component_group"].(string); len(g) != 16 {
		t.Errorf("component_group not a 16-hex signature: %q", g)
	}
	if c, _ := body["components"].(float64); c < 1 {
		t.Errorf("components not reported: %v", body["components"])
	}

	// Old clients may still send the retired "incremental" field: the
	// decoder ignores unknown fields, so the request is accepted and the
	// field has no effect.
	st, body = postRaw(t, base+"/v1/sessions",
		`{"query": "SELECT Organization FROM Roles", "incremental": false}`)
	if st != http.StatusCreated {
		t.Fatalf("create with incremental=false: status %d (%v)", st, body)
	}

	// The info endpoint emits the same parallelism shape as create.
	id, _ := body["id"].(string)
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var again map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatalf("decode info: %v", err)
	}
	if _, ok := again["parallelism"].(map[string]any); !ok {
		t.Errorf("GET session info missing parallelism: %v", again)
	}
}
