// Package obs is the observability layer of the resolution pipeline: a
// concurrency-safe metrics registry (counters, gauges, bounded histograms)
// and a structured span tracer with pluggable sinks (JSONL, in-memory
// collectors). Every pipeline stage — query evaluation, provenance
// construction, expression splitting, repository reuse, learner
// (re)training, probability estimation, LAL scoring, utility scoring,
// probe selection, oracle probes and simplification — reports through a
// single *Obs handle threaded from the public API down to the engine.
//
// A nil *Obs disables everything: all methods are nil-receiver safe and
// return immediately, so instrumented call sites cost one pointer
// comparison when observability is off.
package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of the resolution framework. Stage
// values appear verbatim in trace events and as metric labels.
type Stage string

// Pipeline stages, in rough execution order.
const (
	// StageQueryEval covers SPJU plan execution with provenance tracking
	// (framework Step 2).
	StageQueryEval Stage = "query_eval"
	// StageQueryOperator is one streaming plan operator within a query
	// evaluation: its span carries the operator label, the rows it produced
	// and the inclusive (subtree) time spent producing them. Emitted only
	// when a span sink is attached (per-row timing is skipped otherwise).
	StageQueryOperator Stage = "query_op"
	// StageProvenance covers provenance-annotation bookkeeping after plan
	// execution (unique variables, term sizes).
	StageProvenance Stage = "provenance"
	// StageRepoReuse covers Step 3's substitution of repository-known
	// answers into the provenance before any oracle call.
	StageRepoReuse Stage = "repo_reuse"
	// StageSplit covers expression splitting and bounded CNF conversion
	// (the Section 7.1 pre-processing).
	StageSplit Stage = "split"
	// StageRetrain covers one Learner (re)training pass over the Known
	// Probes Repository.
	StageRetrain Stage = "retrain"
	// StageForestFit covers one random-forest fit inside the Learner.
	StageForestFit Stage = "forest_fit"
	// StageLALTrain covers offline LAL regressor training.
	StageLALTrain Stage = "lal_train"
	// StageLearner covers per-round probability estimation over the
	// candidate probes (Sub-step 4.1a, the paper's Table 4 "Learner" row).
	StageLearner Stage = "learner"
	// StageLAL covers per-round uncertainty-reduction scoring (Sub-step
	// 4.1b, Table 4's "LAL" row).
	StageLAL Stage = "lal"
	// StageUtility covers per-round utility computation (Sub-step 4.2).
	StageUtility Stage = "utility"
	// StageSelector covers the Probe Selector's combine-and-argmax
	// (Sub-step 4.3).
	StageSelector Stage = "selector"
	// StageProbe covers one oracle call; its duration is the oracle's
	// answer latency.
	StageProbe Stage = "probe"
	// StageSimplify covers substituting a probe answer into the working
	// expressions and re-simplifying.
	StageSimplify Stage = "simplify"
	// StageHTTPRequest is one served HTTP request. The resolution service
	// emits it to the slow-request log when a request exceeds the
	// configured latency threshold; its duration is the request's
	// wall-clock service time.
	StageHTTPRequest Stage = "http_request"
)

// Attr is one key/value annotation on a span event.
type Attr struct {
	Key   string
	Value any
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Value: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Value: v} }

// F64 builds a float attribute.
func F64(key string, v float64) Attr { return Attr{Key: key, Value: v} }

// Event is one completed span: a pipeline stage observed once, with its
// start time, duration and free-form annotations.
type Event struct {
	// Time is the span's start time.
	Time time.Time
	// Stage is the pipeline stage.
	Stage Stage
	// Session labels the emitting session (the Config display name, e.g.
	// "General+LAL").
	Session string
	// Round is the probe-selection round, or -1 for events outside the
	// probing loop (setup, training).
	Round int
	// Dur is the span duration.
	Dur time.Duration
	// SessionID is the server-assigned session identifier, when the span
	// was emitted on behalf of a hosted session (empty for library use).
	SessionID string
	// Request is the ID of the HTTP request that initiated the work this
	// span belongs to (empty outside serving mode). Together with
	// SessionID it lets a trace consumer reassemble where one slow request
	// spent its time across pipeline stages.
	Request string
	// Attrs are stage-specific annotations (counts, answers, plan shape).
	Attrs []Attr
}

// Scope carries request-scoped identity for spans emitted on behalf of a
// hosted session: the stable session ID plus the ID of the HTTP request
// currently driving the session. The serving layer calls SetRequest at the
// start of each request (under the session's lock, so pipeline work and
// the scope's request ID cannot race), and every span emitted through a
// handle derived with WithScope is stamped with both IDs.
type Scope struct {
	sessionID string
	request   atomic.Value // string: the most recent driving request ID
}

// NewScope builds a scope for one hosted session.
func NewScope(sessionID string) *Scope {
	sc := &Scope{sessionID: sessionID}
	sc.request.Store("")
	return sc
}

// SessionID returns the scope's session identifier.
func (sc *Scope) SessionID() string {
	if sc == nil {
		return ""
	}
	return sc.sessionID
}

// SetRequest records the request currently driving the session.
func (sc *Scope) SetRequest(id string) {
	if sc != nil {
		sc.request.Store(id)
	}
}

// Request returns the ID of the request currently driving the session.
func (sc *Scope) Request() string {
	if sc == nil {
		return ""
	}
	id, _ := sc.request.Load().(string)
	return id
}

// Sink receives completed span events. Implementations must be safe for
// concurrent use: parallel resolution emits from multiple goroutines.
type Sink interface {
	Emit(Event)
}

// MultiSink fans every event out to each sink in order.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Obs is the instrumentation handle threaded through the pipeline: an
// optional span Sink plus an optional metrics Registry, tagged with the
// emitting session's name. A nil *Obs is valid and disables all
// instrumentation; every method is nil-receiver safe.
type Obs struct {
	sink    Sink
	reg     *Registry
	session string
	scope   *Scope
}

// New builds a handle over sink and reg, either of which may be nil. When
// both are nil the returned handle is nil, so instrumented call sites take
// their disabled fast path.
func New(session string, sink Sink, reg *Registry) *Obs {
	if sink == nil && reg == nil {
		return nil
	}
	return &Obs{sink: sink, reg: reg, session: session}
}

// Enabled reports whether any instrumentation is active.
func (o *Obs) Enabled() bool { return o != nil }

// Tracing reports whether a span sink is attached. Call sites use it to
// gate instrumentation that is only worth paying for when spans are
// collected (e.g. per-operator timing inside the query engine), as opposed
// to cheap counters that flow to the metrics registry regardless.
func (o *Obs) Tracing() bool { return o != nil && o.sink != nil }

// Session returns the handle's session label.
func (o *Obs) Session() string {
	if o == nil {
		return ""
	}
	return o.session
}

// Registry returns the metrics registry, or nil when disabled.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// WithSession derives a handle that emits under a different session label
// but shares the sink, registry and scope. Deriving from a nil handle
// stays nil.
func (o *Obs) WithSession(session string) *Obs {
	if o == nil || session == "" || session == o.session {
		return o
	}
	return &Obs{sink: o.sink, reg: o.reg, session: session, scope: o.scope}
}

// WithScope derives a handle whose spans are stamped with the scope's
// session and request IDs. Deriving from a nil handle stays nil.
func (o *Obs) WithScope(sc *Scope) *Obs {
	if o == nil || sc == nil {
		return o
	}
	return &Obs{sink: o.sink, reg: o.reg, session: o.session, scope: sc}
}

// Emit records one completed span: the event goes to the sink, and the
// duration is observed in the registry histogram "stage_seconds" labeled
// by stage and session (with a matching "events_total" counter).
func (o *Obs) Emit(stage Stage, round int, start time.Time, d time.Duration, attrs ...Attr) {
	if o == nil {
		return
	}
	if o.reg != nil {
		o.reg.Histogram("stage_seconds", string(stage), o.session).Observe(d.Seconds())
		o.reg.Counter("events_total", string(stage), o.session).Inc()
	}
	if o.sink != nil {
		o.sink.Emit(Event{
			Time:      start,
			Stage:     stage,
			Session:   o.session,
			Round:     round,
			Dur:       d,
			SessionID: o.scope.SessionID(),
			Request:   o.scope.Request(),
			Attrs:     attrs,
		})
	}
}

// Gauge sets the named gauge (labeled by session) to v.
func (o *Obs) Gauge(name string, v float64) {
	if o == nil || o.reg == nil {
		return
	}
	o.reg.Gauge(name, o.session).Set(v)
}

// Count adds n to the named counter (labeled by session).
func (o *Obs) Count(name string, n int64) {
	if o == nil || o.reg == nil {
		return
	}
	o.reg.Counter(name, o.session).Add(n)
}
