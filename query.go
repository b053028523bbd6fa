package qres

import (
	"fmt"
	"strings"

	"qres/internal/boolexpr"
	"qres/internal/engine"
	"qres/internal/sqlparse"
)

// Result is the annotated answer of an SPJU query: output rows, each
// carrying the Boolean provenance expression over tuple-correctness
// variables that decides whether the row is a ground-truth answer.
type Result struct {
	db   *DB
	res  *engine.Result
	cols []string
	plan engine.Node
}

// Query evaluates an SPJU SQL statement with provenance tracking and
// freezes the database. The supported fragment is
// SELECT [DISTINCT] cols FROM t1 [AS a1], t2 ... [WHERE cond] [UNION ...]
// with comparison, LIKE, IN, IS [NOT] NULL and AND/OR/NOT conditions, plus
// the year(date) function.
//
// Evaluation is serial by default. Passing WithParallelism enables
// morsel-driven parallel evaluation governed by its Engine dimension
// (0 = one worker per CPU, 1 = serial); results are bit-identical to the
// serial path for any worker count. Other options are ignored here — they
// configure resolution sessions.
//
// Queries over one DB share its join builds: a hash-join build side (a
// table with its pushed-down filters) seen by a second query is kept,
// within a bound of the database's tuple count, and later queries probe it
// instead of scanning the table again. Results are identical either way.
func (db *DB) Query(sql string, opts ...Option) (*Result, error) {
	db.freeze()
	plan, err := sqlparse.ParseAndCompile(sql, db.data)
	if err != nil {
		return nil, err
	}
	x := engine.Exec{Workers: 1, Builds: db.builds}
	if len(opts) > 0 {
		var o options
		for _, opt := range opts {
			opt(&o)
		}
		if o.parSet {
			x.Workers = o.cfg.Parallel.Engine
		}
	}
	res, err := engine.RunWith(db.udb, plan, x)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(res.Columns))
	for i, c := range res.Columns {
		cols[i] = c.String()
	}
	return &Result{db: db, res: res, cols: cols, plan: plan}, nil
}

// PlanShape renders the compact operator-tree signature of the plan as the
// engine executed it, after the rewrite pass — pushed-down selections show
// as "Select*" and fused ORDER BY … LIMIT k as "TopK[k]". See the "Query
// engine" chapter of ARCHITECTURE.md for how to read shapes.
func (r *Result) PlanShape() string {
	return engine.Shape(engine.Rewrite(r.plan))
}

// Len returns the number of output rows.
func (r *Result) Len() int { return len(r.res.Rows) }

// Columns returns the output column names.
func (r *Result) Columns() []string { return append([]string(nil), r.cols...) }

// Row renders the values of row i.
func (r *Result) Row(i int) []string {
	tup := r.res.Rows[i].Tuple
	out := make([]string, len(tup))
	for j, v := range tup {
		out[j] = v.String()
	}
	return out
}

// Provenance renders row i's Boolean provenance expression using
// "table[index]" variable names.
func (r *Result) Provenance(i int) string {
	return r.res.Rows[i].Prov.Format(r.db.udb.Registry())
}

// Uncertain reports whether row i's membership in the answer depends on
// unresolved tuples (constant provenance rows are already decided).
func (r *Result) Uncertain(i int) bool { return !r.res.Rows[i].Prov.Decided() }

// Tuples returns the references of the tuples that row i's correctness
// depends on — the candidate verifications for this row.
func (r *Result) Tuples(i int) []TupleRef {
	vars := r.res.Rows[i].Prov.Vars()
	out := make([]TupleRef, 0, len(vars))
	for _, v := range vars {
		if ref, ok := r.db.udb.RefFor(v); ok {
			out = append(out, TupleRef{Table: ref.Relation, Index: ref.Index})
		}
	}
	return out
}

// UniqueTupleCount returns the number of distinct tuples the whole
// result's correctness depends on — the verification budget an exhaustive
// approach would need.
func (r *Result) UniqueTupleCount() int { return len(r.res.UniqueVars()) }

// String renders a compact table of the result with provenance.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", strings.Join(r.cols, " | "))
	for i := range r.res.Rows {
		fmt.Fprintf(&b, "%s  ⟵  %s\n", strings.Join(r.Row(i), " | "), r.Provenance(i))
	}
	return b.String()
}

// varFor maps a public tuple reference to its internal variable.
func (db *DB) varFor(ref TupleRef) (boolexpr.Var, error) {
	v, ok := db.udb.VarFor(ref.Table, ref.Index)
	if !ok {
		return 0, fmt.Errorf("%w: no tuple %s", ErrUnknownVariable, ref)
	}
	return v, nil
}
