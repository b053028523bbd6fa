package engine

import (
	"errors"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/obs"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// Result is a materialized annotated query answer Q(D̄): the output schema,
// and one Row per output tuple carrying its provenance expression. The set
// of provenance expressions is the paper's Φ(Q, D̄).
//
// The derived provenance statistics (UniqueVars, MaxTermSize) are computed
// once on first use and cached; a Result's Rows must not be mutated after
// those accessors have been called. Results are handled by pointer.
type Result struct {
	Columns []OutCol
	Rows    []Row

	statsOnce sync.Once
	uniqVars  []boolexpr.Var
	maxTerm   int
}

// Provenance returns the provenance expression set Φ, aligned with Rows.
func (r *Result) Provenance() []boolexpr.Expr {
	out := make([]boolexpr.Expr, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Prov
	}
	return out
}

// computeStats scans the provenance once, filling the cached statistics.
func (r *Result) computeStats() {
	r.statsOnce.Do(func() {
		seen := make(map[boolexpr.Var]struct{})
		for _, row := range r.Rows {
			for _, v := range row.Prov.Vars() {
				seen[v] = struct{}{}
			}
			if s := row.Prov.MaxTermSize(); s > r.maxTerm {
				r.maxTerm = s
			}
		}
		r.uniqVars = make([]boolexpr.Var, 0, len(seen))
		for v := range seen {
			r.uniqVars = append(r.uniqVars, v)
		}
		sort.Slice(r.uniqVars, func(i, j int) bool { return r.uniqVars[i] < r.uniqVars[j] })
	})
}

// UniqueVars returns the distinct variables occurring in the result's
// provenance, in ascending order — the candidate probes of the resolution
// problem, and the "# Unique variables" statistic of the paper's Table 3.
// The scan over all provenance runs once; subsequent calls return the
// cached answer (as a fresh slice the caller may modify).
func (r *Result) UniqueVars() []boolexpr.Var {
	r.computeStats()
	return append([]boolexpr.Var(nil), r.uniqVars...)
}

// MaxTermSize returns the k of the k-DNF provenance: the largest term size
// across all rows (the "Term Size" statistic of Table 3). Like UniqueVars,
// the answer is computed once and cached.
func (r *Result) MaxTermSize() int {
	r.computeStats()
	return r.maxTerm
}

// Header renders the column names, comma-separated.
func (r *Result) Header() string {
	parts := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}

// source is what a compilation binds scans against: the base relations,
// and the uncertain database whose variables annotate their tuples. With
// udb nil the relations are a possible world: every tuple is certainly
// present and annotated True, so the same plans evaluate queries both with
// provenance tracking and under standard set semantics.
type source struct {
	data *table.Database
	udb  *uncertain.DB
}

// Exec bundles the execution options of one streaming run: an optional
// instrumentation handle, the engine worker count and an optional build
// cache.
//
// When Obs carries a metrics registry the run maintains the engine
// counters (engine_rows_scanned_total, engine_rows_emitted_total,
// engine_predicates_pushed_total, engine_topk_fused_total,
// engine_morsels_total, engine_parallel_pipelines_total) and the
// engine_workers gauge; with a build cache also
// engine_build_cache_hits_total, engine_build_cache_misses_total and the
// engine_build_cache_rows gauge (BuildCache.Rows). When it carries a span
// sink the run additionally emits a query_eval span (annotated with the
// original and rewritten plan shapes, the output cardinality and the
// builds reused from the cache), one query_op span per operator of the
// serial tree and per exchange (rows produced, inclusive subtree time),
// and a provenance span summarizing the constructed annotations. Tracing
// never changes how the plan executes.
//
// Workers selects the engine worker count: 0 means one worker per CPU
// (runtime.GOMAXPROCS), 1 compiles no exchanges, and n ≥ 2 fans eligible
// pipeline fragments out across n workers. Every worker count runs the
// same operators and returns bit-identical results — same columns, tuple
// order and provenance expressions; see ARCHITECTURE.md "Parallel
// execution" for the determinism argument.
//
// Builds, when set, supplies and keeps join builds across runs over the
// database it was made for (see BuildCache); results are bit-identical
// with and without it.
type Exec struct {
	Obs     *obs.Obs
	Workers int
	Builds  *BuildCache

	morsel int // rows per morsel; 0 selects defaultMorselSize
}

// Run evaluates plan over the uncertain database with provenance tracking
// (Step 2 of the framework). Each output row's expression is True under a
// valuation iff the row belongs to the query answer on that possible world.
//
// Run executes serially: the plan is rewritten (predicate pushdown, top-k
// fusion — see Rewrite), compiled to a tree of Volcano iterators and
// drained. RunWith adds instrumentation and morsel-driven parallelism with
// the same result contract.
func Run(db *uncertain.DB, plan Node) (*Result, error) {
	return RunWith(db, plan, Exec{Workers: 1})
}

// RunWith evaluates plan on the streaming executor with explicit execution
// options — the entry point for instrumented, morsel-parallel and
// build-reusing evaluation. Results are bit-identical to Run for every
// Exec value. A build cache made for another database is an error.
func RunWith(db *uncertain.DB, plan Node, x Exec) (*Result, error) {
	if x.Builds != nil && x.Builds.udb != db {
		return nil, errors.New("engine: build cache belongs to another database")
	}
	return runStream(source{data: db.Data(), udb: db}, plan, x)
}

// runStream rewrites, compiles and drains a plan against src under the
// given execution options, reporting through x.Obs (which may be nil).
func runStream(src source, plan Node, x Exec) (*Result, error) {
	o := x.Obs
	workers := x.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	rewritten, rst := rewriteWithStats(plan)
	ctx := &compileCtx{
		src: src, stats: &execStats{},
		workers: workers, morsel: x.morsel,
		builds: x.Builds, trace: o.Tracing(),
	}
	c, err := compileInput(rewritten, ctx)
	if err != nil {
		return nil, err
	}
	rows, err := drain(c)
	evalDur := time.Since(start)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: c.schema, Rows: rows}
	if o.Enabled() {
		o.Count("engine_rows_scanned_total", ctx.stats.scanned)
		o.Count("engine_rows_emitted_total", int64(len(rows)))
		o.Count("engine_predicates_pushed_total", int64(rst.pushed))
		o.Count("engine_topk_fused_total", int64(rst.topk))
		o.Count("engine_morsels_total", ctx.stats.morsels)
		o.Count("engine_parallel_pipelines_total", ctx.stats.pipelines)
		o.Gauge("engine_workers", float64(workers))
		if x.Builds != nil {
			o.Count("engine_build_cache_hits_total", ctx.stats.reused)
			o.Count("engine_build_cache_misses_total", ctx.stats.missed)
			o.Gauge("engine_build_cache_rows", float64(x.Builds.Rows()))
		}
		o.Emit(obs.StageQueryEval, -1, start, evalDur,
			obs.Str("plan", Shape(plan)), obs.Str("rewritten", Shape(rewritten)),
			obs.Int("rows", len(rows)), obs.Int("scanned", int(ctx.stats.scanned)),
			obs.Int("pushed", rst.pushed), obs.Int("builds_reused", int(ctx.stats.reused)))
		for _, op := range ctx.ops {
			o.Emit(obs.StageQueryOperator, -1, start, op.dur,
				obs.Str("op", op.label), obs.Int("rows", int(op.rows)))
		}
		pstart := time.Now()
		vars := res.UniqueVars()
		maxTerm := res.MaxTermSize()
		o.Emit(obs.StageProvenance, -1, pstart, time.Since(pstart),
			obs.Int("exprs", len(rows)), obs.Int("vars", len(vars)),
			obs.Int("max_term", maxTerm))
	}
	return res, nil
}

// drain opens the compiled iterator tree and collects every row, cloning
// scratch-backed tuples so the materialized Result owns its memory.
func drain(c compiled) ([]Row, error) {
	if err := c.it.Open(); err != nil {
		return nil, err
	}
	defer c.it.Close()
	var rows []Row
	for {
		r, ok, err := c.it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		if !c.stable {
			r.Tuple = cloneTuple(r.Tuple)
		}
		rows = append(rows, r)
	}
}

// RunWorld evaluates plan over a plain database under standard set
// semantics and returns the set of output tuple keys. Experiments use it to
// compute the ground-truth answer Q(D_val*) independently of provenance,
// which is how the resolution-correctness invariant is checked end to end.
// Like Run it executes serially.
func RunWorld(db *table.Database, plan Node) (map[string]table.Tuple, error) {
	res, err := runStream(source{data: db}, plan, Exec{Workers: 1})
	if err != nil {
		return nil, err
	}
	out := make(map[string]table.Tuple, len(res.Rows))
	for _, r := range res.Rows {
		out[r.Tuple.Key()] = r.Tuple
	}
	return out, nil
}
