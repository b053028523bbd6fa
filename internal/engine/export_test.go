package engine

import "qres/internal/uncertain"

// WithMorselSize returns x with n rows per morsel, so tests
// can split test-sized relations into many morsels.
func WithMorselSize(x Exec, n int) Exec {
	x.morsel = n
	return x
}

// RunReference evaluates plan with the materializing reference executor
// (reference_test.go), the oracle the streaming executor is compared
// against.
var RunReference = runReference

// RowBound bounds the rows the reference executor materializes at any
// operator of plan over db. It returns -1 when that bound exceeds limit,
// so a fuzz target can skip plans (chiefly cross joins) too large to
// evaluate quickly. An equi-join's bound is its left bound times the
// largest bucket of its right input, which it evaluates; other joins take
// the product of their inputs' bounds.
func RowBound(db *uncertain.DB, plan Node, limit int) int {
	if n, ok := rowBound(db, plan, limit); ok {
		return n
	}
	return -1
}

func rowBound(db *uncertain.DB, n Node, limit int) (int, bool) {
	switch t := n.(type) {
	case *scanNode:
		rel, ok := db.Data().Relation(t.relation)
		if !ok {
			return 0, true // fails before any row is produced
		}
		return rel.Len(), rel.Len() <= limit
	case *selectNode:
		return rowBound(db, t.input, limit)
	case *projectNode:
		return rowBound(db, t.input, limit)
	case *sortNode:
		return rowBound(db, t.input, limit)
	case *limitNode:
		return rowBound(db, t.input, limit)
	case *unionNode:
		total := 0
		for _, in := range t.inputs {
			b, ok := rowBound(db, in, limit)
			if total += b; !ok || total > limit {
				return 0, false
			}
		}
		return total, true
	case *joinNode:
		l, lok := rowBound(db, t.left, limit)
		r, rok := rowBound(db, t.right, limit)
		if !lok || !rok {
			return 0, false
		}
		ctx := &compileCtx{src: source{data: db.Data(), udb: db}, stats: &execStats{}}
		lc, lerr := compile(t.left, ctx)
		rc, rerr := compile(t.right, ctx)
		if lerr != nil || rerr != nil {
			return 0, true // fails before the join produces a row
		}
		conds, _ := splitEquiConds(t.on, lc.schema, rc.schema)
		if len(conds) == 0 {
			return l * r, l*r <= limit
		}
		_, rows, err := execRef(t.right, db)
		if err != nil {
			return 0, true
		}
		bucket, largest := map[string]int{}, 0
		for _, row := range rows {
			if key, ok := equiKey(row.Tuple, conds, false); ok {
				bucket[key]++
				largest = max(largest, bucket[key])
			}
		}
		return l * largest, l*largest <= limit
	}
	return 0, false
}
