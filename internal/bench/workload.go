package bench

import (
	"fmt"
	"math/rand"

	"qres/internal/boolexpr"
	"qres/internal/datagen"
	"qres/internal/engine"
	"qres/internal/obs"
	"qres/internal/oracle"
	"qres/internal/resolve"
	"qres/internal/sqlparse"
	"qres/internal/stats"
	"qres/internal/uncertain"
)

// Scale selects experiment sizes. The paper ran NELL (1.3M labeled facts)
// and TPC-H SF1 (~8M tuples); the harness defaults to a reduced scale that
// keeps a full regeneration of every figure in the minutes range while
// preserving the provenance shapes. ScaleFull grows the substrates for
// closer (but slower) runs.
type Scale struct {
	// TPCHSF is the TPC-H scale factor.
	TPCHSF float64
	// NELLAthletes sizes the knowledge base.
	NELLAthletes int
	// InitialProbes seeds the Known Probes Repository (paper default
	// 1280).
	InitialProbes int
	// Trees is the Learner's forest size (paper default 100; smaller
	// forests trade a little probe efficiency for much faster online
	// retraining).
	Trees int
	// Reps is the number of repetitions averaged per configuration (the
	// paper averages >= 10 runs).
	Reps int
}

// ScaleQuick is the default harness scale.
func ScaleQuick() Scale {
	return Scale{TPCHSF: 0.003, NELLAthletes: 220, InitialProbes: 320, Trees: 25, Reps: 3}
}

// ScaleFull is the slower, closer-to-paper scale.
func ScaleFull() Scale {
	return Scale{TPCHSF: 0.01, NELLAthletes: 600, InitialProbes: 1280, Trees: 100, Reps: 10}
}

// Workload is a prepared resolution problem: an uncertain database, an
// annotated query result, the hidden ground truth, and the variables
// outside the query provenance (the pool the initial repository draws
// from).
type Workload struct {
	Name    string
	DB      *uncertain.DB
	Result  *engine.Result
	GT      *uncertain.GroundTruth
	offProv []boolexpr.Var
	// refVars are the tuples of the curated region relation. The five
	// region tuples are treated as certain: the ground truth pins them
	// True and every seeded repository includes their answers, so Step 3
	// simplifies them out of the provenance before probing. Without this
	// the single region tuple selected by Q5/Q8 covers every DNF term and
	// one probe can decide the whole query — a degenerate shape the
	// paper's workloads do not exhibit (its Q8 cover size is 6, matching
	// the per-nation hubs that remain once the region is certain).
	refVars []boolexpr.Var
}

// GroundTruthKind selects how tuple correctness is drawn.
type GroundTruthKind struct {
	// Fixed uses a uniform probability for every tuple when RDT is false.
	Fixed float64
	// RDT draws probabilities from a hidden random decision tree over
	// metadata (the paper's default synthetic ground truth).
	RDT bool
}

// RDTGroundTruth is the paper's default.
func RDTGroundTruth() GroundTruthKind { return GroundTruthKind{RDT: true} }

// FixedGroundTruth uses probability p for every tuple.
func FixedGroundTruth(p float64) GroundTruthKind { return GroundTruthKind{Fixed: p} }

// LoadTPCH prepares a TPC-H workload for the named stripped query.
func LoadTPCH(query string, sc Scale, gt GroundTruthKind, seed int64) (*Workload, error) {
	return LoadTPCHObserved(query, sc, gt, seed, nil)
}

// LoadTPCHObserved is LoadTPCH with instrumentation: query evaluation and
// provenance construction emit spans through o (nil disables tracing).
func LoadTPCHObserved(query string, sc Scale, gt GroundTruthKind, seed int64, o *obs.Obs) (*Workload, error) {
	udb := datagen.TPCH(datagen.TPCHConfig{SF: sc.TPCHSF, Seed: stats.SubSeed(seed, 1)})
	return prepare("TPC-H/"+query, udb, datagen.TPCHQueries()[query], gt, seed, o)
}

// LoadNELL prepares a NELL workload for the named hand-written query.
func LoadNELL(query string, sc Scale, gt GroundTruthKind, seed int64) (*Workload, error) {
	udb := datagen.NELL(datagen.NELLConfig{Athletes: sc.NELLAthletes, Seed: stats.SubSeed(seed, 2)})
	return prepare("NELL/"+query, udb, datagen.NELLQueries()[query], gt, seed, nil)
}

func prepare(name string, udb *uncertain.DB, sql string, gt GroundTruthKind, seed int64, o *obs.Obs) (*Workload, error) {
	if sql == "" {
		return nil, fmt.Errorf("bench: unknown query for workload %s", name)
	}
	plan, err := sqlparse.ParseAndCompile(sql, udb.Data())
	if err != nil {
		return nil, fmt.Errorf("bench: compile %s: %w", name, err)
	}
	res, err := engine.RunWith(udb, plan, engine.Exec{Obs: o, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("bench: run %s: %w", name, err)
	}

	var truth *uncertain.GroundTruth
	if gt.RDT {
		truth = uncertain.GenerateRDT(udb, 4, stats.SubSeed(seed, 3))
	} else {
		truth = uncertain.GenerateFixed(udb, gt.Fixed, stats.SubSeed(seed, 3))
	}

	// Region tuples are certain (see Workload.refVars).
	var refVars []boolexpr.Var
	for _, v := range udb.AllVars() {
		if ref, ok := udb.RefFor(v); ok && ref.Relation == "region" {
			truth.Val.Set(v, true)
			truth.Prob[v] = 1
			refVars = append(refVars, v)
		}
	}

	inProv := make(map[boolexpr.Var]bool)
	for _, v := range res.UniqueVars() {
		inProv[v] = true
	}
	var off []boolexpr.Var
	for _, v := range udb.AllVars() {
		if !inProv[v] {
			off = append(off, v)
		}
	}
	return &Workload{Name: name, DB: udb, Result: res, GT: truth, offProv: off, refVars: refVars}, nil
}

// Repository seeds a fresh Known Probes Repository with n probes drawn
// uniformly from tuples outside the query provenance (paper Section 7.1),
// answered by the ground truth.
func (w *Workload) Repository(n int, seed int64) *resolve.Repository {
	repo := resolve.NewRepository()
	for _, v := range w.refVars {
		repo.AddVar(v, w.DB.MetaFor(v), true)
	}
	if n <= 0 || len(w.offProv) == 0 {
		return repo
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(w.offProv))
	if n > len(perm) {
		n = len(perm)
	}
	for _, i := range perm[:n] {
		v := w.offProv[i]
		ans, _ := w.GT.Val.Get(v)
		repo.AddVar(v, w.DB.MetaFor(v), ans)
	}
	return repo
}

// EffectiveProvenance returns the provenance expressions after Step 3
// substitutes the always-known reference answers — the Boolean evaluation
// problem the session actually faces (Table 3 reports its statistics).
func (w *Workload) EffectiveProvenance() []boolexpr.Expr {
	if len(w.refVars) == 0 {
		return w.Result.Provenance()
	}
	known := boolexpr.NewValuation()
	for _, v := range w.refVars {
		known.Set(v, true)
	}
	exprs := w.Result.Provenance()
	out := make([]boolexpr.Expr, len(exprs))
	for i, e := range exprs {
		out[i] = e.Simplify(known)
	}
	return out
}

// Oracle returns a ground-truth oracle for the workload.
func (w *Workload) Oracle() *oracle.GroundTruth {
	return oracle.NewGroundTruth(w.GT.Val)
}

// Subset restricts the workload to n output rows chosen uniformly at
// random (the paper's Figure 6 "T output tuples selected uniformly at
// random, resembling a LIMIT operator over a random ordering"). When the
// result has at most n rows the workload is returned unchanged.
func (w *Workload) Subset(n int, seed int64) *Workload {
	if n <= 0 || len(w.Result.Rows) <= n {
		return w
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(w.Result.Rows))
	sub := &engine.Result{Columns: w.Result.Columns}
	for _, i := range perm[:n] {
		sub.Rows = append(sub.Rows, w.Result.Rows[i])
	}
	out := *w
	out.Result = sub
	out.Name = fmt.Sprintf("%s/T=%d", w.Name, n)
	// Recompute the off-provenance pool for the smaller result.
	inProv := make(map[boolexpr.Var]bool)
	for _, v := range sub.UniqueVars() {
		inProv[v] = true
	}
	out.offProv = nil
	for _, v := range w.DB.AllVars() {
		if !inProv[v] {
			out.offProv = append(out.offProv, v)
		}
	}
	return &out
}

// RunConfig resolves the workload once under cfg with a fresh repository
// of initProbes seeded probes, returning the probe count and the session
// statistics.
func (w *Workload) RunConfig(cfg resolve.Config, initProbes int, seed int64) (int, *resolve.Stats, error) {
	out, err := w.RunWithOracle(cfg, initProbes, seed, w.Oracle())
	if err != nil {
		return 0, nil, err
	}
	return out.Probes, out.Stats, nil
}

// RunWithOracle is RunConfig with a caller-supplied oracle (used by the
// noisy-oracle extension experiments) and the full outcome.
func (w *Workload) RunWithOracle(cfg resolve.Config, initProbes int, seed int64, orc resolve.Oracle) (*resolve.Outcome, error) {
	cfg.Seed = seed
	repo := w.Repository(initProbes, stats.SubSeed(seed, 11))
	sess, err := resolve.NewSession(w.DB, w.Result, orc, repo, cfg)
	if err != nil {
		return nil, err
	}
	return sess.Run()
}

// AverageProbes runs cfg reps times with distinct seeds and returns the
// mean probe count.
func (w *Workload) AverageProbes(cfg resolve.Config, initProbes, reps int, seed int64) (float64, error) {
	if reps <= 0 {
		reps = 1
	}
	total := 0
	for r := 0; r < reps; r++ {
		probes, _, err := w.RunConfig(cfg, initProbes, stats.SubSeed(seed, 100+r))
		if err != nil {
			return 0, err
		}
		total += probes
	}
	return float64(total) / float64(reps), nil
}
