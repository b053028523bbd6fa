package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"qres/internal/obs"
)

// jsonBody marshals v into a request body reader.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// decodeBody decodes a JSON response body into out and closes it.
func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// doWithRequestID issues a request carrying an X-Request-Id header and
// returns the response (caller closes the body).
func doWithRequestID(t *testing.T, method, url, reqID string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRequestIDsInTraceSpans drives one session over HTTP with distinct
// request IDs per call and asserts (a) the IDs are echoed in responses,
// (b) every pipeline span emitted on behalf of the session carries the
// session ID, and (c) each span carries the ID of the specific request
// that triggered it.
func TestRequestIDsInTraceSpans(t *testing.T) {
	trace := &obs.Collector{}
	_, base := startServer(t, Config{Trace: trace})

	var info SessionInfo
	resp := doWithRequestID(t, http.MethodPost, base+"/v1/sessions", "req-create",
		jsonBody(t, CreateSessionRequest{Query: paperSQL, Seed: 1, Trees: 25}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-create" {
		t.Errorf("create response X-Request-Id = %q, want req-create", got)
	}
	decodeBody(t, resp, &info)

	// Setup spans (query evaluation, repository reuse, splitting, ...)
	// belong to the creating request.
	for _, ev := range trace.Events() {
		if ev.Request != "req-create" {
			t.Errorf("setup span %s carries request %q, want req-create", ev.Stage, ev.Request)
		}
		if ev.SessionID != info.ID {
			t.Errorf("setup span %s carries session %q, want %q", ev.Stage, ev.SessionID, info.ID)
		}
	}
	if trace.StageCount(obs.StageQueryEval) == 0 {
		t.Fatal("no query_eval span traced during session creation")
	}

	resp = doWithRequestID(t, http.MethodGet, base+"/v1/sessions/"+info.ID+"/probe", "req-probe", nil)
	var pr ProbeResponse
	decodeBody(t, resp, &pr)
	if pr.Done || pr.Probe == nil {
		t.Fatal("expected an outstanding probe")
	}

	resp = doWithRequestID(t, http.MethodPost, base+"/v1/sessions/"+info.ID+"/answer", "req-answer",
		jsonBody(t, AnswerRequest{Table: pr.Probe.Table, Index: pr.Probe.Index, Answer: true}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-answer" {
		t.Errorf("answer response X-Request-Id = %q, want req-answer", got)
	}
	resp.Body.Close()

	byStage := map[obs.Stage]string{}
	for _, ev := range trace.Events() {
		if ev.SessionID != info.ID {
			t.Errorf("span %s carries session %q, want %q", ev.Stage, ev.SessionID, info.ID)
		}
		if ev.Request == "" {
			t.Errorf("span %s carries no request ID", ev.Stage)
		}
		byStage[ev.Stage] = ev.Request // last writer wins: the most recent span per stage
	}
	if got := byStage[obs.StageSelector]; got != "req-probe" {
		t.Errorf("selector span carries request %q, want req-probe", got)
	}
	for _, stage := range []obs.Stage{obs.StageProbe, obs.StageSimplify} {
		if got := byStage[stage]; got != "req-answer" {
			t.Errorf("%s span carries request %q, want req-answer", stage, got)
		}
	}

	// A request without X-Request-Id gets a generated one.
	resp = doWithRequestID(t, http.MethodGet, base+"/v1/sessions/"+info.ID+"/status", "", nil)
	if got := resp.Header.Get("X-Request-Id"); got == "" {
		t.Error("no generated X-Request-Id on response")
	}
	resp.Body.Close()
}

// TestHTTPMetricsAndSlowLog checks the per-route latency summaries (with
// the 0.99 quantile), in-flight gauge, runtime gauges and the structured
// slow-request log.
func TestHTTPMetricsAndSlowLog(t *testing.T) {
	slow := &obs.Collector{}
	_, base := startServer(t, Config{
		SlowLog:              slow,
		SlowRequestThreshold: time.Nanosecond, // every request is "slow"
	})

	resp := doWithRequestID(t, http.MethodGet, base+"/healthz", "req-health", nil)
	resp.Body.Close()

	resp = doWithRequestID(t, http.MethodGet, base+"/metrics", "", nil)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`qres_http_request_seconds{route="healthz",class="2xx",quantile="0.99"}`,
		`qres_http_requests_total{route="healthz",class="2xx"} 1`,
		`qres_http_in_flight{route="metrics"} 1`, // this scrape is in flight
		`qres_slow_requests_total{route="healthz"} 1`,
		"qres_go_goroutines",
		"qres_go_heap_alloc_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	evs := slow.Events()
	if len(evs) == 0 {
		t.Fatal("no slow-request events logged")
	}
	found := false
	for _, ev := range evs {
		if ev.Stage != obs.StageHTTPRequest {
			t.Errorf("slow-log stage = %q, want %q", ev.Stage, obs.StageHTTPRequest)
		}
		if ev.Request == "req-health" {
			found = true
		}
	}
	if !found {
		t.Errorf("no slow-log event for req-health: %+v", evs)
	}
}

// TestBackpressureRejectionCounter verifies that session creations beyond
// the cap are counted, alongside the 429 status-class series.
func TestBackpressureRejectionCounter(t *testing.T) {
	s, base := startServer(t, Config{MaxSessions: 1})

	create := func() int {
		resp := doWithRequestID(t, http.MethodPost, base+"/v1/sessions", "",
			jsonBody(t, CreateSessionRequest{Query: paperSQL, Seed: 1, Trees: 25}))
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := create(); got != http.StatusCreated {
		t.Fatalf("first create: status %d", got)
	}
	if got := create(); got != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", got)
	}
	if got := s.reg.Counter("backpressure_rejections_total").Value(); got != 1 {
		t.Errorf("backpressure_rejections_total = %d, want 1", got)
	}

	resp := doWithRequestID(t, http.MethodGet, base+"/metrics", "", nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `qres_http_requests_total{route="create_session",class="4xx"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestBuildCacheMetrics creates three sessions for the same query. The
// first two see the plan's two scan builds and keep them, the third
// reuses both: /metrics reports the cache's hits, misses and weight, and
// the third create's query_eval span reports two builds reused.
func TestBuildCacheMetrics(t *testing.T) {
	trace := &obs.Collector{}
	_, base := startServer(t, Config{Trace: trace})
	for i := 0; i < 3; i++ {
		resp := doWithRequestID(t, http.MethodPost, base+"/v1/sessions", "",
			jsonBody(t, CreateSessionRequest{Query: paperSQL, Seed: 1, Trees: 25}))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
	}

	resp := doWithRequestID(t, http.MethodGet, base+"/metrics", "", nil)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`qres_engine_build_cache_hits_total{session=""} 2` + "\n",
		`qres_engine_build_cache_misses_total{session=""} 4` + "\n",
		`qres_engine_build_cache_rows{session=""} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, `qres_engine_build_cache_rows{session=""} 0`+"\n") {
		t.Error("engine_build_cache_rows reads 0 with two builds kept")
	}

	var reused []any
	for _, ev := range trace.Events() {
		if ev.Stage != obs.StageQueryEval {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "builds_reused" {
				reused = append(reused, a.Value)
			}
		}
	}
	if fmt.Sprint(reused) != "[0 0 2]" {
		t.Errorf("query_eval builds_reused = %v, want [0 0 2]", reused)
	}
}
