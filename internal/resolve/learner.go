package resolve

import (
	"sync"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/learn"
	"qres/internal/obs"
	"qres/internal/uncertain"
)

// LearningMode selects how (and whether) probe-answer probabilities are
// learned, matching the configurations compared in the paper's Section 7:
// EP never learns and returns 0.5 for every variable; Offline trains once
// on the initial repository; Online retrains after every probe answer and
// additionally scores candidates with LAL.
type LearningMode uint8

// Learning modes.
const (
	LearnEP LearningMode = iota
	LearnOffline
	LearnOnline
)

// String names the mode as in the paper's figures.
func (m LearningMode) String() string {
	switch m {
	case LearnEP:
		return "EP"
	case LearnOffline:
		return "Offline"
	case LearnOnline:
		return "LAL"
	default:
		return "Learning(?)"
	}
}

// ModelKind selects the Learner's classifier.
type ModelKind uint8

// Classifier choices: random forest (the paper's default) and naive Bayes
// (its comparison model).
const (
	ModelRF ModelKind = iota
	ModelNB
)

// String names the model.
func (m ModelKind) String() string {
	if m == ModelNB {
		return "NB"
	}
	return "RF"
}

// probModel is the minimal classifier interface the Learner needs.
type probModel interface {
	ProbTrue(x []int32) float64
}

// featureCache memoizes per-variable encoded feature vectors. A cache is
// valid only for the encoder it was built under (an extended encoder may
// give a cached Unknown a code), so the Learner swaps in a fresh one
// whenever the encoder changes; while it stays, Prob and Uncertainty stop
// paying an enc.Encode per candidate per round. The internal lock makes
// concurrent lookups from the parallel rescore fan-out safe; double
// insertion of the same variable is harmless because encoding is
// deterministic.
type featureCache struct {
	mu sync.RWMutex
	m  map[boolexpr.Var][]int32
}

func newFeatureCache() *featureCache {
	return &featureCache{m: make(map[boolexpr.Var][]int32)}
}

func (c *featureCache) get(v boolexpr.Var) ([]int32, bool) {
	c.mu.RLock()
	x, ok := c.m[v]
	c.mu.RUnlock()
	return x, ok
}

func (c *featureCache) put(v boolexpr.Var, x []int32) {
	c.mu.Lock()
	c.m[v] = x
	c.mu.Unlock()
}

// Learner is the framework's Learner module (paper Section 4, Figure 3):
// it trains a classifier on the Known Probes Repository to predict probe
// answers from tuple metadata, exposes vote-fraction probability estimates
// for candidate probes, and (in online mode) LAL-based estimates of the
// uncertainty reduction each probe would yield.
//
// Retraining is warm-started: the encoded feature matrix is append-only
// and fed by a repository watermark (only records appended since the last
// retrain are encoded), the encoder grows with them (Encoder.Extend gives
// unseen values the codes a rebuild would give them, so rows encoded
// earlier stay valid), and per-variable feature vectors are cached per
// encoder. The resulting models are bit-identical to a cold rebuild,
// which the equivalence tests assert.
//
// A Learner is safe for concurrent use: probability and uncertainty reads
// may run in parallel with a retraining Observe. Readers snapshot the
// published (encoder, classifier) pair under a read lock and traverse the
// immutable model outside it.
type Learner struct {
	mode           LearningMode
	model          ModelKind
	db             *uncertain.DB
	repo           *Repository
	lal            *learn.LAL
	trees          int
	minTrain       int
	seed           int64
	forestWorkers  int
	fullRetrain    bool
	knownProbs     map[boolexpr.Var]float64
	obs            *obs.Obs
	stallThreshold time.Duration

	mu       sync.RWMutex
	enc      *learn.Encoder
	xc       *featureCache
	data     *learn.Dataset // append-only encoded training matrix
	encoded  int            // repository watermark: records encoded into data
	clf      probModel
	forest   *learn.Forest // non-nil iff model == ModelRF and trained
	retrains int
	version  uint64
}

// LearnerConfig bundles Learner construction parameters.
type LearnerConfig struct {
	Mode  LearningMode
	Model ModelKind
	// Trees is the forest size (default 100, as in the paper).
	Trees int
	// MinTrain is the repository size below which the Learner falls back
	// to equal probabilities (the paper uses 20: "we use EP to select
	// probes until the probes repository is of size at least 20").
	MinTrain int
	// ForestWorkers bounds forest-training parallelism (0 = one worker
	// per CPU, 1 = serial). Models are bit-identical for any value.
	ForestWorkers int
	// fullRetrain disables the warm-started retrain path: every
	// (re)training pass rebuilds the encoder and re-encodes the whole
	// repository, as the pre-warm-start implementation did. Models are
	// identical either way; only the warm-start equivalence tests set it.
	fullRetrain bool
	// LAL scores uncertainty reduction in online mode; nil disables it
	// (scores become 0 and the selector degenerates to utility-only).
	LAL *learn.LAL
	// Seed makes retraining deterministic.
	Seed int64
	// KnownProbs, when non-nil, bypasses learning entirely: Prob returns
	// the mapped value (0.5 for unmapped variables) and Uncertainty is 0.
	// It models the "probabilities known and independent" setting of the
	// paper's Section 3 analysis and the experiments that isolate utility
	// computation from learning (Sections 7.2–7.3).
	KnownProbs map[boolexpr.Var]float64
	// Obs, when non-nil, receives a span event per (re)training pass.
	Obs *obs.Obs
	// StallThreshold flags online retrains that stall the answer path:
	// when an Observe-triggered retrain takes at least this long, the
	// "retrain_stalls_total" counter is incremented (0 disables). Only
	// answer-path retrains count; the constructor's initial fit does not.
	StallThreshold time.Duration
}

// NewLearner builds a Learner over the repository. In Offline and Online
// modes the classifier is trained immediately from the current repository
// contents.
func NewLearner(db *uncertain.DB, repo *Repository, cfg LearnerConfig) *Learner {
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	if cfg.MinTrain <= 0 {
		cfg.MinTrain = 20
	}
	l := &Learner{
		mode:           cfg.Mode,
		model:          cfg.Model,
		db:             db,
		repo:           repo,
		lal:            cfg.LAL,
		trees:          cfg.Trees,
		minTrain:       cfg.MinTrain,
		seed:           cfg.Seed,
		forestWorkers:  cfg.ForestWorkers,
		fullRetrain:    cfg.fullRetrain,
		knownProbs:     cfg.KnownProbs,
		obs:            cfg.Obs,
		stallThreshold: cfg.StallThreshold,
		xc:             newFeatureCache(),
	}
	if l.mode != LearnEP && l.knownProbs == nil {
		l.obs.Gauge("forest_workers", float64(learn.EffectiveWorkers(cfg.ForestWorkers)))
		l.mu.Lock()
		l.retrainLocked()
		l.mu.Unlock()
	}
	return l
}

// Mode returns the learning mode.
func (l *Learner) Mode() LearningMode { return l.mode }

// Retrains returns how many times the classifier has been (re)trained.
func (l *Learner) Retrains() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.retrains
}

// Version identifies the current probability model: it starts at 0 and is
// bumped by every successful (re)training pass. While the version is
// unchanged, Prob is a pure function of the variable — EP, KnownProbs and
// offline learners keep one version for the whole session — which is what
// lets the incremental hot path cache probabilities and utility scores
// across rounds and invalidate them exactly when the model moves.
func (l *Learner) Version() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

// Trained reports whether a classifier is currently available (enough
// training data has been seen).
func (l *Learner) Trained() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.clf != nil
}

// retrainLocked refits the classifier from the repository; the caller
// holds l.mu. Below MinTrain records the Learner stays untrained (EP
// behaviour).
//
// The warm path appends: the encoder extends over the records past the
// encoding watermark, and only they are encoded into the append-only
// matrix. A new attribute name falls back to the cold rebuild (fresh
// encoder, full re-encode), because it would reorder the features.
func (l *Learner) retrainLocked() {
	if l.repo.Len() < l.minTrain {
		return
	}
	start := time.Now()
	rowsEncoded := 0
	reused := false
	if l.enc != nil && !l.fullRetrain {
		recs := l.repo.RecordsSince(l.encoded)
		if enc, ok := l.enc.Extend(metasOf(recs)); ok {
			if enc != l.enc {
				l.enc = enc
				l.xc = newFeatureCache()
			}
			for _, rec := range recs {
				l.data.Add(l.enc.Encode(rec.Meta), rec.Answer)
			}
			l.encoded += len(recs)
			rowsEncoded = len(recs)
			reused = true
		}
	}
	if !reused {
		recs := l.repo.Records()
		l.enc = learn.NewEncoder(metasOf(recs))
		l.xc = newFeatureCache()
		data := &learn.Dataset{
			X: make([][]int32, 0, len(recs)),
			Y: make([]bool, 0, len(recs)),
		}
		for _, rec := range recs {
			data.Add(l.enc.Encode(rec.Meta), rec.Answer)
		}
		l.data = data
		l.encoded = len(recs)
		rowsEncoded = len(recs)
	}
	encodeDone := time.Now()

	switch l.model {
	case ModelNB:
		l.clf = learn.FitNaiveBayes(l.data)
		l.forest = nil
	default:
		f := learn.FitForest(l.data, learn.ForestConfig{
			Trees:   l.trees,
			Seed:    l.seed + int64(l.retrains),
			Workers: l.forestWorkers,
			Obs:     l.obs,
		})
		l.clf = f
		l.forest = f
	}
	l.retrains++
	l.version++
	l.obs.Count("rows_encoded", int64(rowsEncoded))
	if reused {
		l.obs.Count("encoder_reuse", 1)
	} else {
		l.obs.Count("encoder_rebuild", 1)
	}
	l.obs.Emit(obs.StageRetrain, -1, start, time.Since(start),
		obs.Int("examples", l.data.Len()),
		obs.Str("model", l.model.String()),
		obs.Int("retrains", l.retrains),
		obs.Int("rows_encoded", rowsEncoded),
		obs.Bool("encoder_reused", reused),
		obs.F64("encode_ms", float64(encodeDone.Sub(start))/1e6),
		obs.F64("fit_ms", float64(time.Since(encodeDone))/1e6))
}

// metasOf returns the records' metadata maps.
func metasOf(recs []ProbeRecord) []map[string]string {
	metas := make([]map[string]string, len(recs))
	for i := range recs {
		metas[i] = recs[i].Meta
	}
	return metas
}

// snapshot returns the published model under the read lock. The returned
// encoder, classifier and cache are immutable or internally synchronized,
// so callers use them lock-free.
func (l *Learner) snapshot() (enc *learn.Encoder, clf probModel, forest *learn.Forest, xc *featureCache) {
	l.mu.RLock()
	enc, clf, forest, xc = l.enc, l.clf, l.forest, l.xc
	l.mu.RUnlock()
	return enc, clf, forest, xc
}

// encodeVar returns v's feature vector under enc, served from enc's
// cache.
func (l *Learner) encodeVar(enc *learn.Encoder, xc *featureCache, v boolexpr.Var) []int32 {
	if x, ok := xc.get(v); ok {
		return x
	}
	x := enc.Encode(l.db.MetaFor(v))
	xc.put(v, x)
	return x
}

// Prob estimates π̃(x): the probability the oracle would answer True for
// the tuple labeled by v. Untrained learners (EP mode, or too little data)
// return the uninformed 0.5.
func (l *Learner) Prob(v boolexpr.Var) float64 {
	if l.knownProbs != nil {
		if p, ok := l.knownProbs[v]; ok {
			return p
		}
		return 0.5
	}
	if l.mode == LearnEP {
		return 0.5
	}
	enc, clf, _, xc := l.snapshot()
	if clf == nil {
		return 0.5
	}
	return clf.ProbTrue(l.encodeVar(enc, xc, v))
}

// ProbBatch estimates Prob for every variable in vars, writing into out
// (reused when it has capacity). One model snapshot serves the whole
// batch, feature vectors come from the encoder's cache, and forest
// classifiers predict through the allocation-free batch traversal. The
// floats equal per-call Prob exactly, so the incremental and full scoring
// paths stay bit-identical.
func (l *Learner) ProbBatch(vars []boolexpr.Var, out []float64) []float64 {
	if cap(out) < len(vars) {
		out = make([]float64, len(vars))
	}
	out = out[:len(vars)]
	if l.knownProbs != nil {
		for i, v := range vars {
			if p, ok := l.knownProbs[v]; ok {
				out[i] = p
			} else {
				out[i] = 0.5
			}
		}
		return out
	}
	if l.mode == LearnEP {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	enc, clf, _, xc := l.snapshot()
	if clf == nil {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	xs := make([][]int32, len(vars))
	for i, v := range vars {
		xs[i] = l.encodeVar(enc, xc, v)
	}
	if f, ok := clf.(*learn.Forest); ok {
		f.ProbTrueBatch(xs, out)
		return out
	}
	for i, x := range xs {
		out[i] = clf.ProbTrue(x)
	}
	return out
}

// Uncertainty estimates the expected reduction in the Learner's
// generalization error from probing v (Sub-step 4.1's second output).
// It is zero outside online mode, when no LAL regressor is configured, or
// while the classifier is untrained — in all of which cases the Probe
// Selector effectively ranks by utility alone.
func (l *Learner) Uncertainty(v boolexpr.Var) float64 {
	if l.knownProbs != nil || l.mode != LearnOnline || l.lal == nil {
		return 0
	}
	enc, _, forest, xc := l.snapshot()
	if forest == nil {
		return 0
	}
	x := l.encodeVar(enc, xc, v)
	return l.lal.Score(forest, l.repo.Len(), l.repo.PositiveFraction(), x)
}

// UncertaintyBatch estimates Uncertainty for every variable in vars,
// writing into out (reused when it has capacity). The repository size and
// class prior are snapshotted once per batch and the LAL regressor runs
// its batched forest traversals, removing the per-candidate allocations
// and repository lock round-trips of the scalar path.
func (l *Learner) UncertaintyBatch(vars []boolexpr.Var, out []float64) []float64 {
	if cap(out) < len(vars) {
		out = make([]float64, len(vars))
	}
	out = out[:len(vars)]
	if l.knownProbs != nil || l.mode != LearnOnline || l.lal == nil {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	enc, _, forest, xc := l.snapshot()
	if forest == nil {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	trainSize, posFrac := l.repo.Len(), l.repo.PositiveFraction()
	xs := make([][]int32, len(vars))
	for i, v := range vars {
		xs[i] = l.encodeVar(enc, xc, v)
	}
	l.lal.ScoreBatch(forest, trainSize, posFrac, xs, out)
	return out
}

// Observe records a probe answer in the repository and, in online mode,
// retrains the classifier — the paper's Step 5 followed by the iterative
// return to Step 3. The retrain runs on the answer path, so retrains at
// or above the configured stall threshold are counted as stalls.
func (l *Learner) Observe(v boolexpr.Var, answer bool) {
	l.repo.AddVar(v, l.db.MetaFor(v), answer)
	if l.mode == LearnOnline && l.knownProbs == nil {
		start := time.Now()
		l.mu.Lock()
		l.retrainLocked()
		l.mu.Unlock()
		if l.stallThreshold > 0 && time.Since(start) >= l.stallThreshold {
			l.obs.Count("retrain_stalls_total", 1)
		}
	}
}

// FeatureImportances exposes the trained forest's mean-decrease-in-
// impurity importances keyed by attribute name (Section 7.4's analysis),
// or nil when unavailable.
func (l *Learner) FeatureImportances() map[string]float64 {
	l.mu.RLock()
	forest, enc := l.forest, l.enc
	l.mu.RUnlock()
	if forest == nil || enc == nil {
		return nil
	}
	imp := forest.FeatureImportances()
	out := make(map[string]float64, len(imp))
	for i, v := range imp {
		out[enc.Attr(i)] = v
	}
	return out
}
