package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qres/internal/datagen"
	"qres/internal/engine"
	"qres/internal/obs"
	"qres/internal/sqlparse"
	"qres/internal/store"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

// paperSQL is the Figure 2 query (with the paper's dotted date literal).
const paperSQL = `
SELECT DISTINCT a.Acquired, e.Institute
FROM Acquisitions AS a, Roles AS r, Education AS e
WHERE a.Acquired = r.Organization AND
      r.Member = e.Alumni AND a.Date >= 2017.01.01 AND
      r.Role LIKE '%found%' AND e.YEAR <= year(a.Date)
`

// startServer builds the service around the paper database (unless cfg.DB
// is set) and serves it on a loopback listener, shutting down on cleanup.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = testdb.PaperUncertainDB()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	t.Cleanup(func() {
		// doJSON's client may hold a dialed connection that never carried
		// a request; Shutdown would wait 5s before treating it as idle.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, "http://" + ln.Addr().String()
}

// doJSON issues a request with an optional JSON body, decodes a 2xx
// response into out, and returns the status code.
func doJSON(method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			return resp.StatusCode, fmt.Errorf("Content-Type %q, want application/json", ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func mustJSON(t *testing.T, method, url string, body, out any, want int) {
	t.Helper()
	code, err := doJSON(method, url, body, out)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if code != want {
		t.Fatalf("%s %s: status %d, want %d", method, url, code, want)
	}
}

// gtAnswer is the test's remote oracle: it answers a probe from the
// generated ground truth.
func gtAnswer(udb *uncertain.DB, gt *uncertain.GroundTruth, table string, index int) (bool, error) {
	v, ok := udb.VarFor(table, index)
	if !ok {
		return false, fmt.Errorf("probe for unknown tuple %s[%d]", table, index)
	}
	val, assigned := gt.Val.Get(v)
	if !assigned {
		return false, fmt.Errorf("ground truth has no value for %s[%d]", table, index)
	}
	return val, nil
}

// driveSession plays the oracle over HTTP until the session is done and
// returns how many answers it submitted.
func driveSession(base, id string, udb *uncertain.DB, gt *uncertain.GroundTruth) (int, error) {
	answers := 0
	for i := 0; i < 1000; i++ {
		var pr ProbeResponse
		code, err := doJSON("GET", base+"/v1/sessions/"+id+"/probe", nil, &pr)
		if err != nil || code != http.StatusOK {
			return answers, fmt.Errorf("probe: status %d, err %v", code, err)
		}
		if pr.Done {
			return answers, nil
		}
		ans, err := gtAnswer(udb, gt, pr.Probe.Table, pr.Probe.Index)
		if err != nil {
			return answers, err
		}
		var ar AnswerResponse
		code, err = doJSON("POST", base+"/v1/sessions/"+id+"/answer",
			AnswerRequest{Table: pr.Probe.Table, Index: pr.Probe.Index, Answer: ans}, &ar)
		if err != nil || code != http.StatusOK {
			return answers, fmt.Errorf("answer: status %d, err %v", code, err)
		}
		answers++
		if ar.Done {
			return answers, nil
		}
	}
	return answers, fmt.Errorf("session %s did not finish", id)
}

// wantStatuses evaluates the paper query's provenance under the ground
// truth: the resolution the service must converge to.
func wantStatuses(t *testing.T, udb *uncertain.DB, gt *uncertain.GroundTruth) []string {
	t.Helper()
	return wantStatusesFor(t, udb, gt, paperSQL)
}

// wantStatusesFor is wantStatuses for any query.
func wantStatusesFor(t *testing.T, udb *uncertain.DB, gt *uncertain.GroundTruth, sql string) []string {
	t.Helper()
	plan, err := sqlparse.ParseAndCompile(sql, udb.Data())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(udb, plan)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		if row.Prov.Eval(gt.Val) {
			out[i] = "correct"
		} else {
			out[i] = "incorrect"
		}
	}
	return out
}

// TestEndToEndResolution drives a full resolution over a real loopback
// listener: create a session, alternate probe/answer until done, and check
// the final status equals the ground-truth query answer Q(D_val*).
func TestEndToEndResolution(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	gt := uncertain.GenerateFixed(udb, 0.5, 7)
	s, base := startServer(t, Config{DB: udb})

	var info SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions",
		CreateSessionRequest{Query: paperSQL, Strategy: "general", Learning: "online", Seed: 3},
		&info, http.StatusCreated)
	if info.ID == "" || info.Rows == 0 || info.Done {
		t.Fatalf("bad session info: %+v", info)
	}

	// Probe delivery is idempotent: a retried GET returns the same probe.
	var p1, p2 ProbeResponse
	mustJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/probe", nil, &p1, http.StatusOK)
	mustJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/probe", nil, &p2, http.StatusOK)
	if p1.Done || p2.Done || p1.Probe.Table != p2.Probe.Table || p1.Probe.Index != p2.Probe.Index {
		t.Fatalf("probe not idempotent: %+v vs %+v", p1.Probe, p2.Probe)
	}

	answers, err := driveSession(base, info.ID, udb, gt)
	if err != nil {
		t.Fatal(err)
	}
	if answers == 0 {
		t.Fatal("session finished without any probes")
	}

	var st StatusResponse
	mustJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/status", nil, &st, http.StatusOK)
	if !st.Done || st.Probes != answers {
		t.Fatalf("final status: %+v, submitted %d answers", st.SessionInfo, answers)
	}
	want := wantStatuses(t, udb, gt)
	if len(st.RowStatus) != len(want) {
		t.Fatalf("status has %d rows, want %d", len(st.RowStatus), len(want))
	}
	for i, rs := range st.RowStatus {
		if rs.Status != want[i] {
			t.Errorf("row %d: status %q, ground truth %q", i, rs.Status, want[i])
		}
	}

	// Every answer landed in the shared repository.
	if s.Repo().Len() != answers {
		t.Errorf("repository has %d records, want %d", s.Repo().Len(), answers)
	}

	var infos []SessionInfo
	mustJSON(t, "GET", base+"/v1/sessions", nil, &infos, http.StatusOK)
	if len(infos) != 1 || infos[0].ID != info.ID {
		t.Fatalf("session list: %+v", infos)
	}
	mustJSON(t, "DELETE", base+"/v1/sessions/"+info.ID, nil, nil, http.StatusNoContent)
	mustJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/status", nil, nil, http.StatusNotFound)
}

// TestSessionsShareRepository resolves the same query twice: the second
// session answers everything from the shared repository without a single
// probe reaching the remote oracle.
func TestSessionsShareRepository(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	gt := uncertain.GenerateFixed(udb, 0.5, 9)
	_, base := startServer(t, Config{DB: udb})

	create := CreateSessionRequest{Query: paperSQL, Strategy: "general", Learning: "online", Seed: 5}
	var first SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", create, &first, http.StatusCreated)
	answers, err := driveSession(base, first.ID, udb, gt)
	if err != nil {
		t.Fatal(err)
	}
	if answers == 0 {
		t.Fatal("first session probed nothing")
	}

	var second SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", create, &second, http.StatusCreated)
	if !second.Done {
		t.Fatalf("second session not already resolved: %+v", second)
	}
	if second.KnownReused == 0 {
		t.Error("second session reports no repository reuse")
	}
	var pr ProbeResponse
	mustJSON(t, "GET", base+"/v1/sessions/"+second.ID+"/probe", nil, &pr, http.StatusOK)
	if !pr.Done {
		t.Fatalf("second session asked for a probe: %+v", pr.Probe)
	}
}

func TestSessionCapacity(t *testing.T) {
	_, base := startServer(t, Config{MaxSessions: 1})
	create := CreateSessionRequest{Query: paperSQL}

	var first SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", create, &first, http.StatusCreated)
	mustJSON(t, "POST", base+"/v1/sessions", create, nil, http.StatusTooManyRequests)
	mustJSON(t, "DELETE", base+"/v1/sessions/"+first.ID, nil, nil, http.StatusNoContent)
	mustJSON(t, "POST", base+"/v1/sessions", create, nil, http.StatusCreated)
}

func TestSessionTTLEviction(t *testing.T) {
	s, base := startServer(t, Config{SessionTTL: 20 * time.Millisecond})
	var info SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", CreateSessionRequest{Query: paperSQL}, &info, http.StatusCreated)
	time.Sleep(60 * time.Millisecond)
	if n := s.mgr.sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	mustJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/status", nil, nil, http.StatusNotFound)
}

func TestErrorResponses(t *testing.T) {
	_, base := startServer(t, Config{})

	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid JSON: status %d", resp.StatusCode)
	}
	mustJSON(t, "POST", base+"/v1/sessions", CreateSessionRequest{Query: ""}, nil, http.StatusBadRequest)
	mustJSON(t, "POST", base+"/v1/sessions",
		CreateSessionRequest{Query: paperSQL, Strategy: "definitely-not-a-strategy"}, nil, http.StatusBadRequest)
	mustJSON(t, "POST", base+"/v1/sessions",
		CreateSessionRequest{Query: "SELECT nope FROM nowhere"}, nil, http.StatusBadRequest)
	mustJSON(t, "GET", base+"/v1/sessions/deadbeef/probe", nil, nil, http.StatusNotFound)
	mustJSON(t, "POST", base+"/v1/sessions/deadbeef/answer",
		AnswerRequest{Table: "Roles", Index: 0, Answer: true}, nil, http.StatusNotFound)
	mustJSON(t, "DELETE", base+"/v1/sessions/deadbeef", nil, nil, http.StatusNotFound)

	var info SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", CreateSessionRequest{Query: paperSQL}, &info, http.StatusCreated)

	// Answer with no outstanding probe: conflict, session unharmed.
	mustJSON(t, "POST", base+"/v1/sessions/"+info.ID+"/answer",
		AnswerRequest{Table: "Roles", Index: 0, Answer: true}, nil, http.StatusConflict)

	var pr ProbeResponse
	mustJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/probe", nil, &pr, http.StatusOK)
	if pr.Done {
		t.Fatal("session done before any answer")
	}
	// Answer naming a tuple other than the outstanding probe: conflict.
	other := AnswerRequest{Table: "Roles", Index: 0, Answer: true}
	if pr.Probe.Table == other.Table && pr.Probe.Index == other.Index {
		other.Index = 1
	}
	mustJSON(t, "POST", base+"/v1/sessions/"+info.ID+"/answer", other, nil, http.StatusConflict)
	// Answer naming a tuple that does not exist: bad request.
	mustJSON(t, "POST", base+"/v1/sessions/"+info.ID+"/answer",
		AnswerRequest{Table: "NoSuchTable", Index: 0, Answer: true}, nil, http.StatusBadRequest)
	// The outstanding probe is still answerable after the rejections.
	mustJSON(t, "POST", base+"/v1/sessions/"+info.ID+"/answer",
		AnswerRequest{Table: pr.Probe.Table, Index: pr.Probe.Index, Answer: true}, nil, http.StatusOK)
}

func TestHealthzAndMetrics(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	gt := uncertain.GenerateFixed(udb, 0.5, 13)
	_, base := startServer(t, Config{DB: udb})

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	var info SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", CreateSessionRequest{Query: paperSQL, Seed: 1}, &info, http.StatusCreated)
	if _, err := driveSession(base, info.ID, udb, gt); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"qres_stage_seconds_count{stage=\"probe\"",
		"qres_stage_seconds{stage=\"probe\"", // quantile series
		"qres_sessions_created_total 1",
		"qres_sessions_active",
		"qres_answers_total",
		"qres_repository_records",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}

// answerProbes answers n probes of session id from the ground truth; the
// session must not finish before then.
func answerProbes(t *testing.T, base, id string, udb *uncertain.DB, gt *uncertain.GroundTruth, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var pr ProbeResponse
		mustJSON(t, "GET", base+"/v1/sessions/"+id+"/probe", nil, &pr, http.StatusOK)
		if pr.Done {
			t.Fatalf("session done after only %d answers", i)
		}
		ans, err := gtAnswer(udb, gt, pr.Probe.Table, pr.Probe.Index)
		if err != nil {
			t.Fatal(err)
		}
		mustJSON(t, "POST", base+"/v1/sessions/"+id+"/answer",
			AnswerRequest{Table: pr.Probe.Table, Index: pr.Probe.Index, Answer: ans}, nil, http.StatusOK)
	}
}

// crash stops a service served with httptest the way a crash leaves its
// store: the janitor is halted and the store closed without a snapshot.
func crash(t *testing.T, srv *Server, hts *httptest.Server, st *store.Store) {
	t.Helper()
	hts.Close()
	close(srv.sweepStop)
	<-srv.sweepDone
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRestartRecovery kills the service mid-session (store closed, no
// snapshot) and checks that every acknowledged answer comes back from the
// WAL, that a fresh session reuses the recovered answers and still
// converges to the ground truth, and that a graceful shutdown leaves
// nothing to replay.
func TestCrashRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	udb := testdb.PaperUncertainDB()
	gt := uncertain.GenerateFixed(udb, 0.5, 11)
	opts := store.Options{NameFn: udb.Registry().Name, ResolveFn: udb.Registry().Lookup}

	st, repo, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: udb, Repo: repo, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv)
	create := CreateSessionRequest{Query: paperSQL, Strategy: "general", Learning: "online", Seed: 21}
	var info SessionInfo
	mustJSON(t, "POST", hts.URL+"/v1/sessions", create, &info, http.StatusCreated)
	const partial = 3
	answerProbes(t, hts.URL, info.ID, udb, gt, partial)
	crash(t, srv, hts, st)

	// Restart: every acknowledged answer must come back from the WAL.
	st2, repo2, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if repo2.Len() != partial {
		t.Fatalf("recovered %d records, want %d", repo2.Len(), partial)
	}
	if st2.WALRecords() != partial {
		t.Fatalf("recovered WAL holds %d records, want %d", st2.WALRecords(), partial)
	}
	srv2, err := New(Config{DB: udb, Repo: repo2, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	hts2 := httptest.NewServer(srv2)
	var info2 SessionInfo
	mustJSON(t, "POST", hts2.URL+"/v1/sessions", create, &info2, http.StatusCreated)
	answers, err := driveSession(hts2.URL, info2.ID, udb, gt)
	if err != nil {
		t.Fatal(err)
	}
	var sess StatusResponse
	mustJSON(t, "GET", hts2.URL+"/v1/sessions/"+info2.ID+"/status", nil, &sess, http.StatusOK)
	if sess.KnownReused < partial {
		t.Errorf("restarted session reused %d recovered answers, want >= %d", sess.KnownReused, partial)
	}
	want := wantStatuses(t, udb, gt)
	for i, rs := range sess.RowStatus {
		if rs.Status != want[i] {
			t.Errorf("row %d after restart: status %q, ground truth %q", i, rs.Status, want[i])
		}
	}
	if repo2.Len() != partial+answers {
		t.Errorf("repository has %d records, want %d", repo2.Len(), partial+answers)
	}

	// Graceful shutdown snapshots; the third open has no tail to replay.
	hts2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st3, repo3, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.WALRecords() != 0 {
		t.Errorf("WAL holds %d records after snapshot, want 0", st3.WALRecords())
	}
	if repo3.Len() != repo2.Len() {
		t.Errorf("snapshot lost records: %d vs %d", repo3.Len(), repo2.Len())
	}
}

// TestSegmentedStoreCrashRestart checks what the /v1/store endpoint reports
// across a crash and restart of the segmented storage engine: persistence
// and segments before any answer, the logged and fsynced answers before the
// crash, and the recovered replay backlog after the restart.
func TestSegmentedStoreCrashRestart(t *testing.T) {
	dir := t.TempDir()
	udb := testdb.PaperUncertainDB()
	gt := uncertain.GenerateFixed(udb, 0.5, 11)
	opts := store.Options{NameFn: udb.Registry().Name, ResolveFn: udb.Registry().Lookup}

	st, repo, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: udb, Repo: repo, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv)

	// Before any answers: persistence on, segmented engine, empty WAL.
	var status StoreStatusResponse
	mustJSON(t, "GET", hts.URL+"/v1/store", nil, &status, http.StatusOK)
	if !status.Persistent || status.Engine != "segmented" {
		t.Fatalf("store status = %+v, want persistent segmented", status)
	}
	if status.Stats == nil || status.Stats.Segments == 0 {
		t.Fatalf("store status missing segmented stats: %+v", status)
	}
	if status.WALRecords != 0 {
		t.Errorf("store status WALRecords = %d before any answer, want 0", status.WALRecords)
	}

	create := CreateSessionRequest{Query: paperSQL, Strategy: "general", Learning: "online", Seed: 21}
	var info SessionInfo
	mustJSON(t, "POST", hts.URL+"/v1/sessions", create, &info, http.StatusCreated)
	const partial = 3
	answerProbes(t, hts.URL, info.ID, udb, gt, partial)
	mustJSON(t, "GET", hts.URL+"/v1/store", nil, &status, http.StatusOK)
	if status.WALRecords != partial {
		t.Errorf("store status WALRecords = %d, want %d", status.WALRecords, partial)
	}
	if status.Stats.Fsyncs == 0 {
		t.Errorf("store status reports no fsyncs after %d answers", partial)
	}
	crash(t, srv, hts, st)

	// After the restart the endpoint reports the recovered backlog.
	st2, repo2, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, base2 := startServer(t, Config{DB: udb, Repo: repo2, Store: st2})
	mustJSON(t, "GET", base2+"/v1/store", nil, &status, http.StatusOK)
	if !status.Persistent || status.Engine != "segmented" || status.Stats == nil {
		t.Fatalf("store status after restart = %+v, want persistent segmented", status)
	}
	if status.WALRecords != partial || status.RepositoryRecords != partial {
		t.Errorf("store status after restart: WALRecords %d, RepositoryRecords %d, want %d each",
			status.WALRecords, status.RepositoryRecords, partial)
	}
}

// TestStoreStatusWithoutPersistence reports a non-persistent service
// truthfully.
func TestStoreStatusWithoutPersistence(t *testing.T) {
	_, base := startServer(t, Config{})
	var status StoreStatusResponse
	mustJSON(t, "GET", base+"/v1/store", nil, &status, http.StatusOK)
	if status.Persistent || status.Engine != "" || status.Stats != nil {
		t.Errorf("store status = %+v, want non-persistent with no engine", status)
	}
}

// TestConcurrentSessions drives several sessions at once against one
// server (run under -race): all share the repository and all must converge
// to the ground truth.
func TestConcurrentSessions(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	gt := uncertain.GenerateFixed(udb, 0.5, 31)
	_, base := startServer(t, Config{DB: udb, MaxSessions: 16})
	want := wantStatuses(t, udb, gt)

	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			create := CreateSessionRequest{Query: paperSQL, Strategy: "general", Learning: "online", Seed: seed}
			var info SessionInfo
			code, err := doJSON("POST", base+"/v1/sessions", create, &info)
			if err != nil || code != http.StatusCreated {
				errs <- fmt.Errorf("create: status %d, err %v", code, err)
				return
			}
			if !info.Done {
				if _, err := driveSession(base, info.ID, udb, gt); err != nil {
					errs <- err
					return
				}
			}
			var st StatusResponse
			code, err = doJSON("GET", base+"/v1/sessions/"+info.ID+"/status", nil, &st)
			if err != nil || code != http.StatusOK {
				errs <- fmt.Errorf("status: %d, err %v", code, err)
				return
			}
			for row, rs := range st.RowStatus {
				if rs.Status != want[row] {
					errs <- fmt.Errorf("session %s row %d: %q, ground truth %q", info.ID, row, rs.Status, want[row])
					return
				}
			}
		}(int64(100 + i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentQ10MonthCreates creates sessions for one-month Q10
// instances from eight clients at once (run under -race). Every session
// must resolve to the ground truth, and the server's build cache must
// serve the join builds the months share.
func TestConcurrentQ10MonthCreates(t *testing.T) {
	udb := datagen.TPCH(datagen.TPCHConfig{SF: 0.002, Seed: 5})
	gt := uncertain.GenerateFixed(udb, 0.7, 13)
	reg := obs.NewRegistry()
	_, base := startServer(t, Config{DB: udb, MaxSessions: 64, Registry: reg})
	const clients, perClient = 8, 3
	months := testdb.Q10Months(udb)[:clients*perClient]
	want := make([][]string, len(months))
	rows := 0
	for i, sql := range months {
		want[i] = wantStatusesFor(t, udb, gt, sql)
		rows += len(want[i])
	}
	if rows == 0 {
		t.Fatal("no month has answer rows at this scale")
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(months))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for m := c; m < len(months); m += clients {
				create := CreateSessionRequest{Query: months[m], Strategy: "qvalue", Learning: "ep", Seed: int64(m)}
				var info SessionInfo
				code, err := doJSON("POST", base+"/v1/sessions", create, &info)
				if err != nil || code != http.StatusCreated {
					errs <- fmt.Errorf("month %d create: status %d, err %v", m, code, err)
					return
				}
				if !info.Done {
					if _, err := driveSession(base, info.ID, udb, gt); err != nil {
						errs <- fmt.Errorf("month %d: %w", m, err)
						return
					}
				}
				var st StatusResponse
				code, err = doJSON("GET", base+"/v1/sessions/"+info.ID+"/status", nil, &st)
				if err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("month %d status: %d, err %v", m, code, err)
					return
				}
				if len(st.RowStatus) != len(want[m]) {
					errs <- fmt.Errorf("month %d: %d rows, ground truth has %d", m, len(st.RowStatus), len(want[m]))
					return
				}
				for row, rs := range st.RowStatus {
					if rs.Status != want[m][row] {
						errs <- fmt.Errorf("month %d row %d: %q, ground truth %q", m, row, rs.Status, want[m][row])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := reg.Counter("engine_build_cache_hits_total", "").Value(); hits == 0 {
		t.Error("no join build was reused across the month sessions")
	}
}
