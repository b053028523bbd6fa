package engine

import (
	"fmt"
	"sort"

	"qres/internal/boolexpr"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// The materializing reference executor: the engine's executor before
// streaming, kept as the oracle the equivalence suites and BenchmarkEngine
// compare the streaming executor against. Every operator computes its full
// output before its parent starts, and the plan is never rewritten, so a
// reference plan holds no topKNode.

// runReference evaluates plan over db with the reference executor.
func runReference(db *uncertain.DB, plan Node) (*Result, error) {
	schema, rows, err := execRef(plan, db)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: schema, Rows: rows}, nil
}

// refNode is a plan operator the reference executor can evaluate.
type refNode interface {
	// exec evaluates the subtree over db, returning the bound output
	// schema and the materialized annotated rows.
	exec(db *uncertain.DB) (outSchema, []Row, error)
}

// execRef evaluates the subtree n with the reference executor. It panics
// on a topKNode, which only Rewrite builds.
func execRef(n Node, db *uncertain.DB) (outSchema, []Row, error) {
	return n.(refNode).exec(db)
}

// tupleProv annotates the idx-th tuple of relation with its variable,
// looked up one tuple at a time; a relation without variables yields
// False.
func tupleProv(db *uncertain.DB, relation string, idx int) boolexpr.Expr {
	v, ok := db.VarFor(relation, idx)
	if !ok {
		return boolexpr.False()
	}
	return boolexpr.Lit(v)
}

func (n *scanNode) exec(db *uncertain.DB) (outSchema, []Row, error) {
	rel, ok := db.Data().Relation(n.relation)
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown relation %q", n.relation)
	}
	alias := n.alias
	if alias == "" {
		alias = n.relation
	}
	schema := make(outSchema, rel.Schema().Len())
	for i, c := range rel.Schema().Columns() {
		schema[i] = OutCol{Qualifier: alias, Name: c.Name, Kind: c.Kind}
	}
	rows := make([]Row, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		rows[i] = Row{Tuple: rel.At(i), Prov: tupleProv(db, n.relation, i)}
	}
	return schema, rows, nil
}

func (n *selectNode) exec(db *uncertain.DB) (outSchema, []Row, error) {
	schema, rows, err := execRef(n.input, db)
	if err != nil {
		return nil, nil, err
	}
	match, err := n.pred.bind(schema)
	if err != nil {
		return nil, nil, err
	}
	out := rows[:0:0]
	for _, r := range rows {
		if match(r.Tuple) {
			out = append(out, r)
		}
	}
	return schema, out, nil
}

func (n *joinNode) exec(db *uncertain.DB) (outSchema, []Row, error) {
	ls, lrows, err := execRef(n.left, db)
	if err != nil {
		return nil, nil, err
	}
	rs, rrows, err := execRef(n.right, db)
	if err != nil {
		return nil, nil, err
	}
	schema := make(outSchema, 0, len(ls)+len(rs))
	schema = append(schema, ls...)
	schema = append(schema, rs...)

	// Split the condition into hashable equi-conditions (one side bound
	// entirely by left columns, the other by right columns) and a
	// residual predicate.
	equi, residual := splitEquiConds(n.on, ls, rs)

	match := func(table.Tuple) bool { return true }
	if residual != nil {
		match, err = residual.bind(schema)
		if err != nil {
			return nil, nil, err
		}
	}

	concat := func(l, r Row) Row {
		t := make(table.Tuple, 0, len(l.Tuple)+len(r.Tuple))
		t = append(t, l.Tuple...)
		t = append(t, r.Tuple...)
		return Row{Tuple: t, Prov: l.Prov.And(r.Prov)}
	}

	var out []Row
	if len(equi) > 0 {
		// Hash join on the equi-condition key.
		buckets := make(map[string][]int, len(rrows))
		for j, r := range rrows {
			key, ok := equiKey(r.Tuple, equi, false)
			if !ok {
				continue // NULL key never matches
			}
			buckets[key] = append(buckets[key], j)
		}
		for _, l := range lrows {
			key, ok := equiKey(l.Tuple, equi, true)
			if !ok {
				continue
			}
			for _, j := range buckets[key] {
				row := concat(l, rrows[j])
				if match(row.Tuple) {
					out = append(out, row)
				}
			}
		}
	} else {
		// Nested-loop theta join.
		for _, l := range lrows {
			for _, r := range rrows {
				row := concat(l, r)
				if match(row.Tuple) {
					out = append(out, row)
				}
			}
		}
	}
	return schema, out, nil
}

// equiKey builds the hash key of a row for the given equi-conditions.
// It returns ok=false when any key component is NULL (NULL never joins).
func equiKey(t table.Tuple, conds []equiCond, left bool) (string, bool) {
	buf, ok := appendEquiKey(make([]byte, 0, 16*len(conds)), t, conds, left)
	if !ok {
		return "", false
	}
	return string(buf), true
}

func (n *projectNode) exec(db *uncertain.DB) (outSchema, []Row, error) {
	schema, rows, err := execRef(n.input, db)
	if err != nil {
		return nil, nil, err
	}
	evals := make([]func(table.Tuple) table.Value, len(n.cols))
	out := make(outSchema, len(n.cols))
	for i, c := range n.cols {
		f, kind, err := c.bind(schema)
		if err != nil {
			return nil, nil, err
		}
		evals[i] = f
		name := c.String()
		if cr, ok := c.(colRef); ok {
			name = cr.name
		}
		out[i] = OutCol{Name: name, Kind: kind}
	}

	projected := make([]Row, 0, len(rows))
	for _, r := range rows {
		t := make(table.Tuple, len(evals))
		for i, f := range evals {
			t[i] = f(r.Tuple)
		}
		projected = append(projected, Row{Tuple: t, Prov: r.Prov})
	}
	if n.distinct {
		projected = mergeDuplicates(projected)
	}
	return out, projected, nil
}

func (n *unionNode) exec(db *uncertain.DB) (outSchema, []Row, error) {
	if len(n.inputs) == 0 {
		return nil, nil, fmt.Errorf("engine: UNION of zero inputs")
	}
	var schema outSchema
	var all []Row
	for i, in := range n.inputs {
		s, rows, err := execRef(in, db)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			schema = s
		} else {
			if len(s) != len(schema) {
				return nil, nil, fmt.Errorf("engine: UNION arity mismatch: %d vs %d", len(schema), len(s))
			}
			for j := range s {
				a, b := schema[j].Kind, s[j].Kind
				if a != b && a != table.KindNull && b != table.KindNull && !table.Comparable(a, b) {
					return nil, nil, fmt.Errorf("engine: UNION kind mismatch at column %d: %s vs %s", j, a, b)
				}
			}
		}
		all = append(all, rows...)
	}
	return schema, mergeDuplicates(all), nil
}

// mergeDuplicates deduplicates rows by tuple key, disjoining provenance of
// merged rows. First-occurrence order is preserved for determinism.
func mergeDuplicates(rows []Row) []Row {
	index := make(map[string]int, len(rows))
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		key := r.Tuple.Key()
		if i, ok := index[key]; ok {
			out[i].Prov = out[i].Prov.Or(r.Prov)
			continue
		}
		index[key] = len(out)
		out = append(out, r)
	}
	return out
}

func (n *sortNode) exec(db *uncertain.DB) (outSchema, []Row, error) {
	schema, rows, err := execRef(n.input, db)
	if err != nil {
		return nil, nil, err
	}
	evals := make([]func(table.Tuple) table.Value, len(n.keys))
	for i, k := range n.keys {
		f, _, err := k.By.bind(schema)
		if err != nil {
			return nil, nil, err
		}
		evals[i] = f
	}
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		return compareRows(n.keys, evals, out[a].Tuple, out[b].Tuple) < 0
	})
	return schema, out, nil
}

func (l *limitNode) exec(db *uncertain.DB) (outSchema, []Row, error) {
	schema, rows, err := execRef(l.input, db)
	if err != nil {
		return nil, nil, err
	}
	if l.n >= 0 && len(rows) > l.n {
		rows = rows[:l.n]
	}
	return schema, rows, nil
}
