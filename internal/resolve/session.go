package resolve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/engine"
	"qres/internal/learn"
	"qres/internal/obs"
	"qres/internal/stats"
	"qres/internal/uncertain"
)

// Oracle reveals the ground-truth correctness val*(x) of the tuple labeled
// by a variable (paper Section 2.2). Implementations live in
// internal/oracle: ground-truth lookup, noisy and latency-simulating
// wrappers.
type Oracle interface {
	Probe(v boolexpr.Var) (bool, error)
}

// Baseline selects one of the paper's non-framework baselines; with
// BaselineNone the Config's Utility drives a full framework instantiation.
type Baseline uint8

// Baselines of Section 7.1.
const (
	BaselineNone Baseline = iota
	BaselineRandom
	BaselineGreedy
	BaselineLALOnly
)

// Parallelism consolidates the session's worker-count knobs, one field
// per parallel dimension. The zero value of every field means "default"
// (one worker per CPU); 1 forces serial execution. Each dimension is a
// pure latency/throughput knob: trained models, utility scores and probe
// choices are bit-identical for any worker counts.
type Parallelism struct {
	// Forest bounds forest-training parallelism in the Learner.
	Forest int
	// Rescore bounds the incremental rescore fan-out within one component
	// shard (or across the whole workset when sharding is inactive).
	Rescore int
	// Shards bounds how many component shards run probe scoring
	// concurrently within one selection round.
	Shards int
	// Engine bounds morsel-driven parallelism at query-evaluation time
	// (the engine's streaming executor). It is consumed by the serving
	// layer and the public DB.Query path, not by the resolution loop
	// itself, which operates on an already-evaluated result.
	Engine int
}

// Config assembles a resolution-session configuration: either a baseline,
// or a (utility function × learning mode × combination function) framework
// instantiation as compared throughout the paper's Section 7.
type Config struct {
	// Utility is the utility function (QValue{}, RO{}, General{}) of a
	// framework instantiation. Ignored when Baseline is set.
	Utility Utility
	// Baseline selects Random / Greedy / LAL-only instead of a utility.
	Baseline Baseline
	// Learning is the probability-learning mode (EP / Offline / Online).
	Learning LearningMode
	// Model is the Learner's classifier (random forest by default).
	Model ModelKind
	// Combine balances utility and uncertainty reduction. The zero value
	// defaults to u·(v+1) in online mode and utility-only otherwise,
	// matching the paper's defaults.
	Combine *Combine
	// Trees is the forest size (default 100).
	Trees int
	// MinTrain is the repository size below which probabilities stay at
	// 0.5 (default 20).
	MinTrain int
	// LAL is the uncertainty-reduction regressor; nil defaults to the
	// shared pre-trained instance in online mode.
	LAL *learn.LAL
	// KnownProbs, when non-nil, gives the session the true per-variable
	// probabilities and disables learning — the "known and independent
	// probabilities" setting used to isolate utility computation.
	KnownProbs map[boolexpr.Var]float64
	// Costs assigns per-variable verification costs (default 1.0 for
	// unlisted variables); the session's Stats accumulate total cost
	// alongside the probe count.
	Costs map[boolexpr.Var]float64
	// CostAware makes the Probe Selector rank candidates by combined
	// score per unit cost — the cost-aware probe selection the paper's
	// Section 9 sketches as future work ("validation of some tuples may
	// require more effort than the validation of others"). Without it,
	// Costs is accounting-only.
	CostAware bool
	// Seed drives every random choice in the session.
	Seed int64

	// Obs is the observability handle: when non-nil, the session emits a
	// structured span event (and a registry timing observation) for every
	// pipeline stage — repository reuse, splitting, per-component probe
	// selection, oracle probes, simplification, learner retraining. A nil
	// handle disables instrumentation at near-zero cost.
	Obs *obs.Obs

	// Parallel bounds worker fan-out per dimension (forest training,
	// incremental rescore, component shards). Zero-valued fields default
	// to one worker per CPU.
	Parallel Parallelism

	// DisableIncremental turns off incremental scoring: every round then
	// recomputes all probabilities and utility scores from scratch (and
	// component sharding, which builds on the incremental caches, is off
	// too). Incremental scoring is ON by default — probe choices are
	// bit-identical either way, because the caches reuse the full path's
	// arithmetic on unchanged inputs — so this switch exists only for
	// benchmarking the speedup and as an escape hatch. Wire APIs expose
	// the positive form ("incremental", default true) instead of this
	// double negative.
	DisableIncremental bool
	// DisableSharding turns off component-sharded probe selection: the
	// workset is then scored as one monolithic unit even when it splits
	// into variable-disjoint components. Probe choices are bit-identical
	// with sharding on or off; the switch exists for benchmarking the
	// sharded speedup and as an escape hatch.
	DisableSharding bool
	// fullRetrain disables the Learner's warm-started retrain path (see
	// LearnerConfig.fullRetrain); models are identical either way. Only
	// the warm-start equivalence tests set it.
	fullRetrain bool
	// RetrainStallThreshold counts online retrains that hold up the answer
	// path for at least this long as "retrain_stalls_total" (0 disables).
	// A serving deployment watches this counter to decide when retraining
	// must move off the probe critical path.
	RetrainStallThreshold time.Duration

	// DisableSplitting turns off expression splitting entirely; sessions
	// whose utility needs CNF then fail on oversized expressions.
	DisableSplitting bool
	// SplitAll splits every expression larger than SplitMaxTerms, even
	// when its CNF would fit (the Figure 8 "with splitting" setting for
	// CNF-free algorithms).
	SplitAll bool
	// SplitMaxTerms is the bound B on terms per split part (default 8).
	SplitMaxTerms int
	// CNFClauseBound caps CNF size; expressions exceeding it are split
	// (default 4096 clauses).
	CNFClauseBound int
}

func (c Config) withDefaults() Config {
	if c.SplitMaxTerms <= 0 {
		c.SplitMaxTerms = 8
	}
	if c.CNFClauseBound <= 0 {
		c.CNFClauseBound = 4096
	}
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.LAL == nil && c.Learning == LearnOnline && c.KnownProbs == nil &&
		c.Baseline != BaselineGreedy && c.Baseline != BaselineRandom {
		c.LAL = learn.SharedLAL()
	}
	return c
}

// Name renders the configuration as the paper's figures label it, e.g.
// "Q-Value+LAL", "RO+EP", "General+Offline", "Random", "Greedy".
func (c Config) Name() string {
	switch c.Baseline {
	case BaselineRandom:
		return "Random"
	case BaselineGreedy:
		return "Greedy"
	case BaselineLALOnly:
		return "LAL only"
	}
	u := "?"
	if c.Utility != nil {
		u = c.Utility.Name()
	}
	return fmt.Sprintf("%s+%s", u, c.Learning)
}

// Stats collects per-session counters and the per-component timing
// distributions reported in the paper's Table 4.
type Stats struct {
	// Probes is the number of oracle calls issued, the paper's primary
	// metric.
	Probes int
	// Cost is the total verification cost (equals Probes when no Costs
	// map is configured).
	Cost float64
	// KnownReused counts variables resolved from the repository without
	// an oracle call (Step 3).
	KnownReused int
	// TuplesResimplified counts provenance expressions re-simplified by
	// probe answers over the session — the expressions actually touched via
	// the variable→expression inverted index, not the full working set.
	TuplesResimplified int
	// VarsRescored counts candidate variables whose utility aggregate was
	// recomputed during scoring. With the incremental path this is only the
	// variables co-occurring with probed ones; the full path rescores every
	// candidate every round.
	VarsRescored int
	// ScoreCacheHits and ScoreCacheMisses count candidates served from the
	// incremental utility-score cache versus recomputed.
	ScoreCacheHits   int
	ScoreCacheMisses int
	// ProbCacheHits and ProbCacheMisses count Learner probability estimates
	// served from cache versus recomputed. The cache empties whenever the
	// model retrains (Learner.Version moves).
	ProbCacheHits   int
	ProbCacheMisses int
	// ShardRoundsReused counts per-shard selection rounds served entirely
	// from a shard's cached winner: the shard received no probe delta and
	// the model did not retrain, so its previous argmax is still exact and
	// scoring is skipped. Zero when component sharding is inactive.
	ShardRoundsReused int
	// Learner, LAL, Utility and Selector time each framework component
	// per probe selection. Baselines populate the timers they exercise
	// (Random and Greedy only the Selector; LAL-only also the LAL timer).
	Learner  stats.Timer
	LAL      stats.Timer
	Utility  stats.Timer
	Selector stats.Timer
}

// Merge accumulates other's counters and timing samples into st, used to
// aggregate per-component statistics from parallel sub-sessions.
func (st *Stats) Merge(other *Stats) {
	st.Probes += other.Probes
	st.Cost += other.Cost
	st.KnownReused += other.KnownReused
	st.TuplesResimplified += other.TuplesResimplified
	st.VarsRescored += other.VarsRescored
	st.ScoreCacheHits += other.ScoreCacheHits
	st.ScoreCacheMisses += other.ScoreCacheMisses
	st.ProbCacheHits += other.ProbCacheHits
	st.ProbCacheMisses += other.ProbCacheMisses
	st.ShardRoundsReused += other.ShardRoundsReused
	st.Learner.Merge(&other.Learner)
	st.LAL.Merge(&other.LAL)
	st.Utility.Merge(&other.Utility)
	st.Selector.Merge(&other.Selector)
}

// Summary renders the session counters and per-component timing
// distributions as a Table-4-style multi-line report (times in seconds).
func (st *Stats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "probes=%d cost=%.1f known_reused=%d\n", st.Probes, st.Cost, st.KnownReused)
	fmt.Fprintf(&b, "resimplified=%d rescored=%d score_cache=%d/%d prob_cache=%d/%d (hits/misses) shard_reuse=%d\n",
		st.TuplesResimplified, st.VarsRescored,
		st.ScoreCacheHits, st.ScoreCacheMisses,
		st.ProbCacheHits, st.ProbCacheMisses,
		st.ShardRoundsReused)
	row := func(name string, t *stats.Timer) {
		s := t.Summary()
		fmt.Fprintf(&b, "%-9s n=%-5d %s\n", name, s.Count, s)
	}
	row("learner", &st.Learner)
	row("lal", &st.LAL)
	row("utility", &st.Utility)
	row("selector", &st.Selector)
	return b.String()
}

// RowAnswer is the resolved status of one output row.
type RowAnswer struct {
	Row     int  // index into the query result's rows
	Correct bool // ground-truth membership in Q(D_val*)
}

// Outcome is the final result of a resolution session: the exact
// ground-truth answer set and the cost of obtaining it.
type Outcome struct {
	// Answers has one entry per output row of the query result.
	Answers []RowAnswer
	// Probes is the number of oracle calls issued.
	Probes int
	// Stats are the detailed session statistics.
	Stats *Stats
}

// CorrectRows returns the indices of rows decided correct, i.e. the exact
// ground-truth answer set Q(D_val*) as row indices.
func (o *Outcome) CorrectRows() []int {
	var out []int
	for _, a := range o.Answers {
		if a.Correct {
			out = append(out, a.Row)
		}
	}
	return out
}

// Session is one run of the iterative resolution process (framework Steps
// 3–5) for a fixed query result, oracle and configuration.
type Session struct {
	db       *uncertain.DB
	result   *engine.Result
	oracle   Oracle
	repo     *Repository
	learner  *Learner
	strategy Strategy
	cfg      Config

	work   *workset
	inc    *incState           // incremental scoring caches; nil when disabled or sharded
	val    *boolexpr.Valuation // accumulated answers for provenance variables
	lalBuf []float64           // reused uncertainty-score buffer, one per round
	rng    *rand.Rand
	round  int
	stats  Stats
	obs    *obs.Obs
	err    error

	// shards are the per-component sub-resolutions when component-sharded
	// selection is active (nil otherwise); varShard maps each candidate
	// variable to the shard owning its component. componentCount and
	// componentSig describe the workset's component structure at session
	// start regardless of whether sharding activated.
	shards         []*shard
	varShard       map[boolexpr.Var]int
	shardWorkers   int
	scoredBuf      []*shard // per-round scratch for nextSharded's partition
	componentCount int
	componentSig   string

	// repoSeen is the repository length whose records this session has
	// already reconciled against its candidates. The repository is
	// append-only, so NextProbe skips the per-candidate known-answer scan
	// entirely while Len() still equals repoSeen: a variable can only become
	// known through a new record.
	repoSeen int

	// pending is the outstanding probe request of the async API: selected
	// by NextProbe, waiting for SubmitAnswer. Nil when no probe is parked.
	pending   *ProbeRequest
	pendingAt time.Time
}

// ProbeRequest describes one outstanding probe: the variable the Probe
// Selector chose, the tuple metadata a remote oracle needs to verify it,
// and the probe-selection round it belongs to. It is the currency of the
// asynchronous session API (NextProbe / SubmitAnswer), which decouples
// probe selection from answer delivery so that a remote oracle — a crowd
// worker or expert taking seconds to minutes per answer — does not hold a
// goroutine or lock while deliberating.
type ProbeRequest struct {
	Var   boolexpr.Var
	Round int
	Meta  map[string]string
}

// NewSession prepares a resolution session. The repository seeds the
// Learner and supplies already-known answers, which are substituted into
// the provenance before any oracle call; the repository is extended in
// place as the session probes, so passing a shared repository across
// sessions models the paper's accumulation of probe answers over time
// (clone it to isolate runs). orc may be nil for sessions driven through
// the asynchronous NextProbe/SubmitAnswer API, where answers arrive from
// a remote oracle; Step then fails, but Run after completion still works.
func NewSession(db *uncertain.DB, result *engine.Result, orc Oracle, repo *Repository, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if cfg.Baseline == BaselineNone && cfg.Utility == nil {
		return nil, errors.New("resolve: config needs a Utility or a Baseline")
	}
	if repo == nil {
		repo = NewRepository()
	}
	s := &Session{
		db:     db,
		result: result,
		oracle: orc,
		repo:   repo,
		cfg:    cfg,
		val:    boolexpr.NewValuation(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		obs:    cfg.Obs.WithSession(cfg.Name()),
	}

	s.learner = NewLearner(db, repo, LearnerConfig{
		Mode:           cfg.Learning,
		Model:          cfg.Model,
		Trees:          cfg.Trees,
		MinTrain:       cfg.MinTrain,
		ForestWorkers:  cfg.Parallel.Forest,
		fullRetrain:    cfg.fullRetrain,
		LAL:            cfg.LAL,
		Seed:           cfg.Seed,
		KnownProbs:     cfg.KnownProbs,
		Obs:            s.obs,
		StallThreshold: cfg.RetrainStallThreshold,
	})

	switch cfg.Baseline {
	case BaselineRandom:
		s.strategy = randomStrategy{rng: rand.New(rand.NewSource(cfg.Seed + 1))}
	case BaselineGreedy:
		s.strategy = greedyStrategy{}
	case BaselineLALOnly:
		s.strategy = lalOnlyStrategy{}
	default:
		combine := CombineUtilityOnly()
		if cfg.Combine != nil {
			combine = *cfg.Combine
		} else if cfg.Learning == LearnOnline {
			combine = CombineProduct()
		}
		s.strategy = utilityStrategy{util: cfg.Utility, combine: combine}
	}

	// Step 3: plug in truth values already known from previous probes. The
	// length is captured before the scan so that any record added
	// concurrently after this point keeps Len() ahead of repoSeen and
	// triggers a NextProbe rescan.
	reuseStart := time.Now()
	s.repoSeen = repo.Len()
	exprs := result.Provenance()
	known := boolexpr.NewValuation()
	for _, e := range exprs {
		for _, v := range e.Vars() {
			if ans, ok := repo.Answer(v); ok {
				known.Set(v, ans)
				s.val.Set(v, ans)
				s.stats.KnownReused++
			}
		}
	}
	s.obs.Emit(obs.StageRepoReuse, -1, reuseStart, time.Since(reuseStart),
		obs.Int("reused", s.stats.KnownReused),
		obs.Int("exprs", len(exprs)),
		obs.Int("repo_size", repo.Len()))

	splitStart := time.Now()
	needCNF := s.strategy.NeedsCNF()
	parts, partOf, cnfs, err := prepareExpressions(
		exprs, known,
		!cfg.DisableSplitting, cfg.SplitAll, needCNF,
		cfg.SplitMaxTerms, cfg.CNFClauseBound,
		s.rng,
	)
	if err != nil {
		return nil, err
	}
	work := newWorkset(parts, partOf, cnfs)
	s.work = work

	// Component structure: always derived (it labels the session for
	// shard-group placement in serving mode); shards are only built when
	// the configuration is eligible and the workset actually splits.
	groups := boolexpr.Components(work.exprs)
	s.componentCount = len(groups)
	s.componentSig = componentSignature(work, groups)
	switch {
	case s.shardingEligible(groups):
		s.buildShards(groups)
	case !cfg.DisableIncremental:
		s.inc = newIncState(work, s.learner, cfg.Parallel.Rescore, nil)
	}
	s.obs.Emit(obs.StageSplit, -1, splitStart, time.Since(splitStart),
		obs.Int("parts", len(parts)),
		obs.Int("undecided", work.undecided),
		obs.Int("components", s.componentCount),
		obs.Int("shards", len(s.shards)),
		obs.Bool("cnf", needCNF))
	s.obs.Gauge("undecided_exprs", float64(work.undecided))
	return s, nil
}

// Components reports how many variable-disjoint connected components the
// working expressions formed at session start (0 when the session started
// fully decided). Components share no variables, so they are resolved by
// independent per-component score caches when sharding is active.
func (s *Session) Components() int { return s.componentCount }

// ComponentSignature is a stable fingerprint of the workset's component
// structure at session start. Sessions with equal signatures resolve
// structurally identical worksets; serving deployments group such
// sessions onto shard groups sharing one repository view.
func (s *Session) ComponentSignature() string { return s.componentSig }

// Name returns the configuration's display name.
func (s *Session) Name() string { return s.cfg.Name() }

// Done reports whether every provenance expression is decided.
func (s *Session) Done() bool { return s.work.done() }

// Stats returns the live session statistics.
func (s *Session) Stats() *Stats { return &s.stats }

// Learner exposes the session's Learner (for feature-importance analysis).
func (s *Session) Learner() *Learner { return s.learner }

// Valuation returns the partial valuation accumulated so far. The returned
// valuation must not be modified.
func (s *Session) Valuation() *boolexpr.Valuation { return s.val }

// NextProbe runs probe selection (framework Sub-steps 4.1–4.3) and parks
// the session on the chosen variable, returning the probe request a remote
// oracle needs. It never calls the oracle. Calling NextProbe again before
// SubmitAnswer returns the same outstanding request without re-running
// selection, so the endpoint is idempotent and the RNG state is untouched
// by retries. Variables that concurrent sessions sharing the repository
// have answered since this session was created are applied directly (the
// late counterpart of the constructor's Step 3 reuse) rather than sent to
// the oracle. done=true (with a zero request) means every expression is
// already decided.
func (s *Session) NextProbe() (req ProbeRequest, done bool, err error) {
	if s.err != nil {
		return ProbeRequest{}, true, s.err
	}
	if s.pending != nil {
		return *s.pending, false, nil
	}
	for {
		if s.work.done() {
			return ProbeRequest{}, true, nil
		}
		// The known-answer scan only matters when the repository has grown
		// since this session last reconciled against it: answers this session
		// applied itself are already out of the candidate set, so with an
		// unchanged Len() the live candidate list can be used as is (read-only
		// until the next applyProbe) without the copy or the per-candidate
		// repository lookups.
		candidates := s.work.cands
		if n := s.repo.Len(); n != s.repoSeen {
			candidates = s.work.candidates()
			unknown := candidates[:0:0]
			for _, v := range candidates {
				if ans, ok := s.repo.Answer(v); ok {
					s.applyKnown(v, ans)
					continue
				}
				unknown = append(unknown, v)
			}
			s.repoSeen = n
			if len(unknown) < len(candidates) {
				// Applied answers may have decided expressions; re-derive the
				// candidate set before running selection.
				continue
			}
			candidates = unknown
		}
		if len(candidates) == 0 {
			// Cannot happen for sound worksets: undecided expressions always
			// contain variables.
			s.err = errors.New("resolve: undecided expressions but no candidates")
			return ProbeRequest{}, true, s.err
		}
		v, err := s.strategy.next(s, candidates)
		if err != nil {
			s.err = err
			return ProbeRequest{}, true, err
		}
		if s.val.Assigned(v) {
			s.err = fmt.Errorf("resolve: strategy re-probed variable %d", v)
			return ProbeRequest{}, true, s.err
		}
		// Selection can be slow; a concurrent session may have answered the
		// chosen variable meanwhile. Apply the answer and reselect.
		if ans, ok := s.repo.Answer(v); ok {
			s.applyKnown(v, ans)
			continue
		}
		s.pending = &ProbeRequest{Var: v, Round: s.round, Meta: s.db.MetaFor(v)}
		s.pendingAt = time.Now()
		return *s.pending, false, nil
	}
}

// applyKnown plugs a repository-known answer into the working expressions
// without an oracle probe, counting it as repository reuse.
func (s *Session) applyKnown(v boolexpr.Var, answer bool) {
	start := time.Now()
	s.val.Set(v, answer)
	s.stats.KnownReused++
	delta := s.work.applyProbe(v, answer)
	s.noteDelta(delta)
	s.obs.Emit(obs.StageRepoReuse, s.round, start, time.Since(start),
		obs.Int("var", int(v)), obs.Int("decided", len(delta.decided)),
		obs.Int("undecided", s.work.undecided))
	s.obs.Gauge("undecided_exprs", float64(s.work.undecided))
}

// noteDelta accounts one probe delta: the resimplification counters and
// the incremental caches' dirty sets both feed off it. With sharding
// active the delta routes to the one shard owning the probed variable —
// components share no variables, so a probe can never touch another
// shard's state.
func (s *Session) noteDelta(d *probeDelta) {
	s.stats.TuplesResimplified += len(d.touched)
	s.obs.Count("tuples_resimplified", int64(len(d.touched)))
	if s.shards != nil {
		s.shards[s.varShard[d.probed]].noteDelta(d)
		return
	}
	s.inc.noteDelta(d)
}

// Pending returns the outstanding probe request, if any.
func (s *Session) Pending() (ProbeRequest, bool) {
	if s.pending == nil {
		return ProbeRequest{}, false
	}
	return *s.pending, true
}

// SubmitAnswer delivers the oracle's answer for the outstanding probe:
// the answer is recorded in the repository (Step 5), the Learner retrains
// in online mode, the working expressions are simplified, and the session
// advances to the next round. v must match the variable returned by
// NextProbe; answering with no probe outstanding or for a different
// variable is an error that leaves the session state untouched.
func (s *Session) SubmitAnswer(v boolexpr.Var, answer bool) (done bool, err error) {
	if s.err != nil {
		return true, s.err
	}
	if s.pending == nil {
		if s.work.done() {
			return true, ErrSessionDone
		}
		return false, ErrNoProbePending
	}
	if v != s.pending.Var {
		return false, fmt.Errorf("%w: answer for variable %d but probe %d is outstanding", ErrProbeMismatch, v, s.pending.Var)
	}
	// The probe span's duration is the oracle's answer latency: the time
	// between selection and answer delivery.
	s.obs.Emit(obs.StageProbe, s.round, s.pendingAt, time.Since(s.pendingAt),
		obs.Int("var", int(v)), obs.Bool("answer", answer))
	s.pending = nil
	s.stats.Probes++
	s.stats.Cost += s.cost(v)
	s.val.Set(v, answer)
	s.learner.Observe(v, answer) // Step 5 + online retraining
	s.repoSeen++                 // Observe appends exactly one record for our own probe

	simplifyStart := time.Now()
	delta := s.work.applyProbe(v, answer)
	s.noteDelta(delta)
	s.obs.Emit(obs.StageSimplify, s.round, simplifyStart, time.Since(simplifyStart),
		obs.Int("decided", len(delta.decided)),
		obs.Int("resimplified", len(delta.touched)),
		obs.Int("undecided", s.work.undecided))
	s.obs.Gauge("undecided_exprs", float64(s.work.undecided))
	s.round++
	return s.work.done(), nil
}

// Step performs one synchronous iteration: select a probe, ask the oracle
// inline, record the answer, and simplify. It reports whether the session
// is done after the step. Calling Step on a finished session is a no-op
// returning done=true. Step is NextProbe + oracle call + SubmitAnswer;
// sessions constructed without an oracle must use the async pair instead.
func (s *Session) Step() (probed boolexpr.Var, done bool, err error) {
	req, done, err := s.NextProbe()
	if done || err != nil {
		return 0, done, err
	}
	if s.oracle == nil {
		s.err = ErrNoOracle
		return 0, true, s.err
	}
	answer, err := s.oracle.Probe(req.Var)
	if err != nil {
		s.err = fmt.Errorf("resolve: oracle probe failed: %w", err)
		return 0, true, s.err
	}
	done, err = s.SubmitAnswer(req.Var, answer)
	return req.Var, done, err
}

// component times one framework component of the current probe-selection
// round, recording the duration both in the per-session Stats timer and as
// an observability span.
func (s *Session) component(stage obs.Stage, t *stats.Timer, fn func(), attrs ...obs.Attr) {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.Observe(d)
	s.obs.Emit(stage, s.round, start, d, attrs...)
}

// Run drives the session to completion and returns the outcome: the exact
// resolved answer set and the probe count. The algorithms are "correct by
// design" (paper Section 7.1) — they stop only when every expression is
// decided.
func (s *Session) Run() (*Outcome, error) {
	for !s.work.done() {
		if _, _, err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.outcome(), nil
}

// RowStatus is the live resolution status of one output row.
type RowStatus uint8

// Row statuses reported by Snapshot.
const (
	// RowUnknown: the row's provenance is not yet decided.
	RowUnknown RowStatus = iota
	// RowCorrect: the row is certainly a ground-truth answer.
	RowCorrect
	// RowIncorrect: the row is certainly not a ground-truth answer.
	RowIncorrect
)

// String renders the status.
func (s RowStatus) String() string {
	switch s {
	case RowCorrect:
		return "correct"
	case RowIncorrect:
		return "incorrect"
	default:
		return "unknown"
	}
}

// Snapshot reports the current resolution status of every output row —
// the paper's interactive view ("at each point of this iterative process,
// the user can view the current subset of query results determined to be
// (in)correct"). It can be called between Step invocations.
func (s *Session) Snapshot() []RowStatus {
	states := s.work.rowStatus(len(s.result.Rows))
	out := make([]RowStatus, len(states))
	for i, st := range states {
		switch st {
		case rowTrue:
			out[i] = RowCorrect
		case rowFalse:
			out[i] = RowIncorrect
		default:
			out[i] = RowUnknown
		}
	}
	return out
}

// cost returns the verification cost of probing v (1 by default).
func (s *Session) cost(v boolexpr.Var) float64 {
	if s.cfg.Costs == nil {
		return 1
	}
	if c, ok := s.cfg.Costs[v]; ok && c > 0 {
		return c
	}
	return 1
}

// outcome aggregates part statuses back to output-row answers.
func (s *Session) outcome() *Outcome {
	states := s.work.rowStatus(len(s.result.Rows))
	answers := make([]RowAnswer, len(states))
	for i, st := range states {
		answers[i] = RowAnswer{Row: i, Correct: st == rowTrue}
	}
	return &Outcome{Answers: answers, Probes: s.stats.Probes, Stats: &s.stats}
}
