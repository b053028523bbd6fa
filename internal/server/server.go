// Package server exposes resolution sessions as an HTTP/JSON service: the
// paper's oracle is a human (crowd worker or domain expert) answering one
// probe at a time, so the service splits the resolution loop at the probe
// boundary — GET a probe, deliberate for as long as it takes, POST the
// answer — while hosting many concurrent sessions against one loaded
// uncertain database. All sessions share a single Known Probes Repository
// (cross-session probe reuse, Section 4's accumulation over time), which
// is made durable by a write-ahead log appended on every answer plus an
// atomic snapshot on graceful shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"qres/internal/engine"
	"qres/internal/obs"
	"qres/internal/resolve"
	"qres/internal/sqlparse"
	"qres/internal/store"
	"qres/internal/uncertain"
)

// Config assembles a resolution service.
type Config struct {
	// DB is the loaded uncertain database every session queries. Required.
	DB *uncertain.DB
	// Repo is the shared Known Probes Repository. Nil creates an empty
	// one (or, when Store is set, the store's recovered repository is
	// used instead).
	Repo *resolve.Repository
	// Store persists the shared repository (segmented WAL + snapshot).
	// Nil disables persistence.
	Store *store.Store
	// MaxSessions caps concurrently live sessions; creation beyond the
	// cap returns 429 (default 64).
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (default 30m).
	SessionTTL time.Duration
	// Parallel is the default per-session worker bounds, used by sessions
	// whose create request carries no "parallelism" object (zero = one
	// worker per CPU). Results are bit-identical for any bounds.
	Parallel resolve.Parallelism
	// Registry collects service and per-stage pipeline metrics, rendered
	// by GET /metrics. Nil creates a private registry.
	Registry *obs.Registry
	// Trace receives a span event for every pipeline stage each hosted
	// session executes (selector, retrain, probe, ...). Spans carry the
	// hosting session's ID and the ID of the HTTP request that triggered
	// the work. Nil disables span tracing (metrics still collect).
	Trace obs.Sink
	// SlowLog receives one structured event (stage "http_request") per
	// request slower than SlowRequestThreshold. Nil disables the log; the
	// "slow_requests_total" counter increments either way.
	SlowLog obs.Sink
	// SlowRequestThreshold is the slow-request latency bound (default
	// 500ms).
	SlowRequestThreshold time.Duration
	// RetrainStallThreshold counts answer-path retrains at least this slow
	// as "retrain_stalls_total" (default 100ms; negative disables).
	RetrainStallThreshold time.Duration
}

// Server is the resolution service: an http.Handler plus the session
// manager and shared repository behind it.
type Server struct {
	udb    *uncertain.DB
	builds *engine.BuildCache // join builds shared by every session's query
	repo   *resolve.Repository
	store  *store.Store
	reg    *obs.Registry
	mgr    *manager
	mux    *http.ServeMux

	trace          obs.Sink
	slowLog        obs.Sink
	slowThreshold  time.Duration
	stallThreshold time.Duration
	defaultPar     resolve.Parallelism

	httpServer *http.Server
	sweepStop  chan struct{}
	sweepDone  chan struct{}
}

// New builds the service. A background janitor evicts idle sessions;
// Shutdown (or Close) stops it.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 30 * time.Minute
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Repo == nil {
		cfg.Repo = resolve.NewRepository()
	}
	if cfg.SlowRequestThreshold <= 0 {
		cfg.SlowRequestThreshold = 500 * time.Millisecond
	}
	switch {
	case cfg.RetrainStallThreshold == 0:
		cfg.RetrainStallThreshold = 100 * time.Millisecond
	case cfg.RetrainStallThreshold < 0:
		cfg.RetrainStallThreshold = 0
	}
	s := &Server{
		udb:            cfg.DB,
		builds:         engine.NewBuildCache(cfg.DB),
		repo:           cfg.Repo,
		store:          cfg.Store,
		reg:            cfg.Registry,
		trace:          cfg.Trace,
		slowLog:        cfg.SlowLog,
		slowThreshold:  cfg.SlowRequestThreshold,
		stallThreshold: cfg.RetrainStallThreshold,
		defaultPar:     cfg.Parallel,
		mgr:            newManager(cfg.MaxSessions, cfg.SessionTTL, cfg.Registry),
		mux:            http.NewServeMux(),
		sweepStop:      make(chan struct{}),
		sweepDone:      make(chan struct{}),
	}
	s.routes()
	go s.janitor(cfg.SessionTTL)
	return s, nil
}

// routes wires the v1 API. Every route runs under the instrumentation
// middleware (request IDs, latency histograms, slow-request log); the
// route label is the logical operation, keeping metric cardinality fixed.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("create_session", s.handleCreateSession))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("list_sessions", s.handleListSessions))
	s.mux.HandleFunc("GET /v1/sessions/{id}/probe", s.instrument("probe", s.handleProbe))
	s.mux.HandleFunc("POST /v1/sessions/{id}/answer", s.instrument("answer", s.handleAnswer))
	s.mux.HandleFunc("GET /v1/sessions/{id}/status", s.instrument("status", s.handleStatus))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("status", s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("delete_session", s.handleDeleteSession))
	s.mux.HandleFunc("GET /v1/store", s.instrument("store_status", s.handleStoreStatus))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// janitor periodically evicts idle sessions until Shutdown.
func (s *Server) janitor(ttl time.Duration) {
	defer close(s.sweepDone)
	period := ttl / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.mgr.sweep()
		}
	}
}

// Serve accepts connections on ln until Shutdown. It blocks, returning
// http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.httpServer = &http.Server{Handler: s}
	return s.httpServer.Serve(ln)
}

// Shutdown gracefully stops the service: in-flight handlers drain (via
// http.Server.Shutdown when Serve is running), the janitor stops, and the
// shared repository is snapshotted atomically with the WAL flushed and
// reset — after Shutdown the snapshot alone reproduces every acknowledged
// answer.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpServer != nil {
		err = s.httpServer.Shutdown(ctx)
	}
	select {
	case <-s.sweepStop:
	default:
		close(s.sweepStop)
	}
	<-s.sweepDone
	if s.store != nil {
		if serr := s.store.Snapshot(s.repo); serr != nil && err == nil {
			err = serr
		}
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Close is Shutdown with a short drain deadline.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Repo exposes the shared repository (for tests and the serve binary).
func (s *Server) Repo() *resolve.Repository { return s.repo }

// --- handlers ---

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err))
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, errors.New("query is required"))
		return
	}
	cfg, err := sessionConfig(req, s.defaultPar)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := sqlparse.ParseAndCompile(req.Query, s.udb.Data())
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("query: %w", err))
		return
	}
	// The session's observability scope is created before any pipeline
	// work runs, so even the setup spans (query evaluation, provenance,
	// initial training) carry the session ID and the creating request's ID.
	id := newSessionID()
	scope := obs.NewScope(id)
	scope.SetRequest(RequestID(r.Context()))
	cfg.Obs = obs.New("", s.trace, s.reg).WithScope(scope)
	cfg.RetrainStallThreshold = s.stallThreshold
	// Session queries evaluate under the morsel-parallel executor; the
	// config's Engine dimension bounds the worker count (0 = per CPU).
	// Join builds repeated across sessions come from the server's cache.
	result, err := engine.RunWith(s.udb, plan, engine.Exec{Obs: cfg.Obs, Workers: cfg.Parallel.Engine, Builds: s.builds})
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("query: %w", err))
		return
	}
	inner, err := resolve.NewSession(s.udb, result, nil, s.repo, cfg)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := &session{
		id:       id,
		created:  time.Now(),
		lastUsed: time.Now(),
		inner:    inner,
		result:   result,
		name:     cfg.Name(),
		scope:    scope,
		group:    inner.ComponentSignature(),
		par:      ParallelismJSON(cfg.Parallel),
		done:     inner.Done(),
	}
	if err := s.mgr.add(sess); err != nil {
		s.reg.Counter("backpressure_rejections_total").Inc()
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeJSONStatus(w, http.StatusCreated, s.info(sess))
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.mgr.list()
	infos := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		infos = append(infos, s.info(sess))
	}
	writeJSON(w, infos)
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownSession)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.touch()
	sess.scope.SetRequest(RequestID(r.Context()))
	req, done, err := sess.inner.NextProbe()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if done {
		sess.done = true
		writeJSON(w, ProbeResponse{Done: true})
		return
	}
	ref, ok := s.udb.RefFor(req.Var)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("probe selected unknown variable %d", req.Var))
		return
	}
	writeJSON(w, ProbeResponse{Probe: &ProbeJSON{
		Table:  ref.Relation,
		Index:  ref.Index,
		Round:  req.Round,
		Values: s.tupleValues(ref),
		Meta:   req.Meta,
	}})
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownSession)
		return
	}
	var req AnswerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err))
		return
	}
	v, ok := s.udb.VarFor(req.Table, req.Index)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: no tuple %s[%d]", resolve.ErrUnknownVariable, req.Table, req.Index))
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.touch()
	sess.scope.SetRequest(RequestID(r.Context()))
	// SubmitAnswer adds the record to the shared repository and the append
	// logs it to the WAL; running both inside one Store.Update makes the
	// pair atomic with respect to Snapshot, so a periodic snapshot cannot
	// capture the repository add and then see the append land in the
	// freshly reset WAL (which would replay the record twice on recovery).
	var done bool
	var submitErr error
	submitAndLog := func(append func(...resolve.ProbeRecord) error) error {
		done, submitErr = sess.inner.SubmitAnswer(v, req.Answer)
		if submitErr != nil || append == nil {
			return nil
		}
		return append(resolve.ProbeRecord{Var: v, HasVar: true, Meta: s.udb.MetaFor(v), Answer: req.Answer})
	}
	var walErr error
	if s.store != nil {
		walErr = s.store.Update(submitAndLog)
	} else {
		_ = submitAndLog(nil)
	}
	if submitErr != nil {
		// Answer for the wrong tuple, or no probe outstanding: the
		// session state is untouched, the client should re-GET the probe.
		writeError(w, http.StatusConflict, submitErr)
		return
	}
	if walErr != nil {
		// The answer is recorded in memory but not durable; surface
		// the fault rather than acknowledging a lost write.
		writeError(w, http.StatusInternalServerError, fmt.Errorf("wal append: %w", walErr))
		return
	}
	sess.probes++
	sess.done = done
	s.reg.Counter("answers_total").Inc()
	if s.store != nil {
		s.reg.Gauge("wal_records").Set(float64(s.store.WALRecords()))
	}
	writeJSON(w, AnswerResponse{Done: done, Probes: sess.probes})
}

// handleStoreStatus reports the persistence engine behind the shared
// repository with its full stats (segments, group-commit counters,
// compactions).
func (s *Server) handleStoreStatus(w http.ResponseWriter, r *http.Request) {
	resp := StoreStatusResponse{
		Persistent:        s.store != nil,
		RepositoryRecords: s.repo.Len(),
	}
	if s.store != nil {
		stats := s.store.Stats()
		resp.Engine = stats.Engine
		resp.WALRecords = stats.TailRecords
		resp.Stats = &stats
	}
	writeJSON(w, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownSession)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.touch()
	resp := StatusResponse{SessionInfo: s.infoLocked(sess)}
	for i, st := range sess.inner.Snapshot() {
		values := make([]string, len(sess.result.Rows[i].Tuple))
		for j, v := range sess.result.Rows[i].Tuple {
			values[j] = v.String()
		}
		resp.RowStatus = append(resp.RowStatus, RowStatusJSON{Row: i, Values: values, Status: st.String()})
	}
	writeJSON(w, resp)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if !s.mgr.remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, errUnknownSession)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Gauge("repository_records").Set(float64(s.repo.Len()))
	obs.CollectRuntime(s.reg)
	if err := obs.WriteText(w, s.reg.Snapshot()); err != nil {
		writeError(w, http.StatusInternalServerError, err)
	}
}

// --- helpers ---

// info snapshots a session's public description (taking its lock).
func (s *Server) info(sess *session) SessionInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return s.infoLocked(sess)
}

// infoLocked is info with sess.mu already held.
func (s *Server) infoLocked(sess *session) SessionInfo {
	stats := sess.inner.Stats()
	return SessionInfo{
		ID:             sess.id,
		Strategy:       sess.name,
		Rows:           len(sess.result.Rows),
		Probes:         stats.Probes,
		KnownReused:    stats.KnownReused,
		Done:           sess.inner.Done(),
		Components:     sess.inner.Components(),
		ComponentGroup: sess.group,
		Parallelism:    sess.par,
		CreatedUnix:    sess.created.Unix(),
		LastUsedUnix:   sess.lastUsed.Unix(),
	}
}

// tupleValues renders the referenced tuple's column values.
func (s *Server) tupleValues(ref uncertain.TupleRef) []string {
	rel, ok := s.udb.Data().Relation(ref.Relation)
	if !ok {
		return nil
	}
	tup := rel.At(ref.Index)
	out := make([]string, len(tup))
	for i, v := range tup {
		out[i] = v.String()
	}
	return out
}

// sessionConfig maps API names onto a resolve.Config (the same taxonomy
// the public qres options use). def is the server's default worker bounds
// for requests without a parallelism object; the deprecated forest_workers
// field is still honored when that object leaves the dimension unset.
func sessionConfig(req CreateSessionRequest, def resolve.Parallelism) (resolve.Config, error) {
	cfg := resolve.Config{Seed: req.Seed, Trees: req.Trees, Parallel: def}
	if p := req.Parallelism; p != nil {
		cfg.Parallel = resolve.Parallelism(*p)
	}
	if cfg.Parallel.Forest == 0 {
		cfg.Parallel.Forest = req.ForestWorkers
	}
	switch strings.ToLower(req.Strategy) {
	case "", "general":
		cfg.Utility = resolve.General{}
	case "qvalue", "q-value":
		cfg.Utility = resolve.QValue{}
	case "ro":
		cfg.Utility = resolve.RO{}
	case "random":
		cfg.Baseline = resolve.BaselineRandom
	case "greedy":
		cfg.Baseline = resolve.BaselineGreedy
	case "lal-only", "lalonly":
		cfg.Baseline = resolve.BaselineLALOnly
	default:
		return cfg, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	switch strings.ToLower(req.Learning) {
	case "", "online":
		cfg.Learning = resolve.LearnOnline
	case "offline":
		cfg.Learning = resolve.LearnOffline
	case "ep":
		cfg.Learning = resolve.LearnEP
	default:
		return cfg, fmt.Errorf("unknown learning mode %q", req.Learning)
	}
	switch strings.ToLower(req.Model) {
	case "", "rf":
		cfg.Model = resolve.ModelRF
	case "nb":
		cfg.Model = resolve.ModelNB
	default:
		return cfg, fmt.Errorf("unknown model %q", req.Model)
	}
	return cfg, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONStatus writes a JSON body with a non-200 status, setting the
// Content-Type before WriteHeader (headers set afterwards are ignored).
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders the stable error contract: HTTP status plus an
// {"error": {"code", "message"}} body, with the code resolved from the
// error's typed identity (errors.Is against the resolution sentinels).
func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: ErrorBody{
		Code:    errorCode(err, code),
		Message: err.Error(),
	}})
}
