// Package engine evaluates SPJU queries — the Positive Relational Algebra
// of Selection, Projection, inner Join and Union (paper Section 2.1) — over
// uncertain databases with Boolean provenance tracking (Section 2.3).
//
// Every output row carries a monotone DNF provenance expression built by
// the standard provenance-semiring rules: a scanned tuple is annotated with
// its own variable, a join conjoins the provenance of its inputs, and
// duplicate elimination (DISTINCT projection, UNION) disjoins the
// provenance of merged rows.
//
// Execution is streaming: Run rewrites the plan (predicate pushdown, top-k
// fusion — see Rewrite), compiles it to a tree of Volcano-style
// Open/Next/Close iterators, and drains the root, keeping provenance
// annotation on the streaming path. The original materialize-per-operator
// executor survives in this package's tests as the pinned control the
// equivalence tests and benchmarks compare against. ARCHITECTURE.md's
// "Query engine" chapter documents the iterator contract and the
// equivalence argument.
package engine

import (
	"fmt"
	"strings"

	"qres/internal/table"
)

// OutCol describes one column of an operator's output: an optional
// qualifier (the relation alias it came from), the column name, and its
// kind. Projection may clear the qualifier.
type OutCol struct {
	Qualifier string
	Name      string
	Kind      table.Kind
}

// String renders the column as "qualifier.name" or "name".
func (c OutCol) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// outSchema is the bound output schema of an operator.
type outSchema []OutCol

// resolve finds the position of the referenced column. A qualified
// reference must match both qualifier and name; an unqualified reference
// must match a unique column name. Matching is case-insensitive.
func (s outSchema) resolve(qualifier, name string) (int, error) {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(c.Qualifier, qualifier) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("engine: ambiguous column reference %q", colRefString(qualifier, name))
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("engine: unknown column %q", colRefString(qualifier, name))
	}
	return found, nil
}

func colRefString(qualifier, name string) string {
	if qualifier != "" {
		return qualifier + "." + name
	}
	return name
}

// Scalar is a row-level expression yielding a value: a column reference, a
// constant, or the year() function the paper's example query uses.
type Scalar interface {
	// bind resolves column references against the input schema and
	// returns an evaluator plus the static kind of the result (KindNull
	// when the kind depends on the row, e.g. a column of nulls).
	bind(s outSchema) (func(row table.Tuple) table.Value, table.Kind, error)
	// appendKey appends the scalar's build-cache key over s to dst (see
	// BuildCache). Call it only once bind has succeeded on s.
	appendKey(dst []byte, s outSchema) []byte
	String() string
}

// Col references a column, optionally qualified by a relation alias.
func Col(qualifier, name string) Scalar { return colRef{qualifier, name} }

type colRef struct{ qualifier, name string }

func (c colRef) bind(s outSchema) (func(table.Tuple) table.Value, table.Kind, error) {
	idx, err := s.resolve(c.qualifier, c.name)
	if err != nil {
		return nil, table.KindNull, err
	}
	kind := s[idx].Kind
	return func(row table.Tuple) table.Value { return row[idx] }, kind, nil
}

func (c colRef) appendKey(dst []byte, s outSchema) []byte {
	idx, _ := s.resolve(c.qualifier, c.name) // bind resolved it already
	return appendKeyInt(append(dst, 'C'), idx)
}

func (c colRef) String() string { return colRefString(c.qualifier, c.name) }

// Const wraps a literal value.
func Const(v table.Value) Scalar { return constant{v} }

type constant struct{ v table.Value }

func (c constant) bind(outSchema) (func(table.Tuple) table.Value, table.Kind, error) {
	v := c.v
	return func(table.Tuple) table.Value { return v }, v.Kind(), nil
}

func (c constant) appendKey(dst []byte, _ outSchema) []byte {
	return appendKeyValue(append(dst, 'K'), c.v)
}

func (c constant) String() string { return c.v.String() }

// Year extracts the calendar year of a date-valued scalar, as in the
// paper's predicate "e.Year <= year(a.Date)".
func Year(of Scalar) Scalar { return yearOf{of} }

type yearOf struct{ of Scalar }

func (y yearOf) bind(s outSchema) (func(table.Tuple) table.Value, table.Kind, error) {
	inner, kind, err := y.of.bind(s)
	if err != nil {
		return nil, table.KindNull, err
	}
	if kind != table.KindDate && kind != table.KindNull {
		return nil, table.KindNull, fmt.Errorf("engine: year() applied to %s", kind)
	}
	return func(row table.Tuple) table.Value {
		v := inner(row)
		if v.Kind() != table.KindDate {
			return table.Null()
		}
		return table.Int(v.Year())
	}, table.KindInt, nil
}

func (y yearOf) appendKey(dst []byte, s outSchema) []byte {
	return y.of.appendKey(append(dst, 'Y'), s)
}

func (y yearOf) String() string { return "year(" + y.of.String() + ")" }
