package engine

import (
	"fmt"
	"strings"

	"qres/internal/table"
)

// CmpOp enumerates comparison operators. The SPJU fragment permits negation
// inside selection predicates (e.g. Year != 2017) but not at the query
// operator level, so != and NOT are supported here while the algebra stays
// monotone.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Predicate is a row-level Boolean condition used by selections and join
// conditions. Predicates follow SQL three-valued logic collapsed to
// two-valued "matches / does not match": a comparison involving NULL does
// not match.
type Predicate interface {
	bind(s outSchema) (func(row table.Tuple) bool, error)
	// appendKey appends the predicate's build-cache key over s to dst (see
	// BuildCache). Call it only once bind has succeeded on s.
	appendKey(dst []byte, s outSchema) []byte
	String() string
}

// Cmp compares two scalars with the given operator.
func Cmp(left Scalar, op CmpOp, right Scalar) Predicate { return cmpPred{left, op, right} }

type cmpPred struct {
	left  Scalar
	op    CmpOp
	right Scalar
}

func (p cmpPred) bind(s outSchema) (func(table.Tuple) bool, error) {
	lf, lk, err := p.left.bind(s)
	if err != nil {
		return nil, err
	}
	rf, rk, err := p.right.bind(s)
	if err != nil {
		return nil, err
	}
	if lk != table.KindNull && rk != table.KindNull && !table.Comparable(lk, rk) {
		return nil, fmt.Errorf("engine: cannot compare %s with %s in %s", lk, rk, p)
	}
	op := p.op
	return func(row table.Tuple) bool {
		l, r := lf(row), rf(row)
		if l.IsNull() || r.IsNull() {
			return false
		}
		c, err := table.Compare(l, r)
		if err != nil {
			return false
		}
		switch op {
		case OpEq:
			return c == 0
		case OpNe:
			return c != 0
		case OpLt:
			return c < 0
		case OpLe:
			return c <= 0
		case OpGt:
			return c > 0
		case OpGe:
			return c >= 0
		}
		return false
	}, nil
}

func (p cmpPred) appendKey(dst []byte, s outSchema) []byte {
	dst = append(dst, 'c', byte(p.op))
	return p.right.appendKey(p.left.appendKey(dst, s), s)
}

func (p cmpPred) String() string {
	return fmt.Sprintf("%s %s %s", p.left, p.op, p.right)
}

// Like matches a scalar against a SQL LIKE pattern.
func Like(col Scalar, pattern string) Predicate { return likePred{col, pattern} }

type likePred struct {
	col     Scalar
	pattern string
}

func (p likePred) bind(s outSchema) (func(table.Tuple) bool, error) {
	f, kind, err := p.col.bind(s)
	if err != nil {
		return nil, err
	}
	if kind != table.KindString && kind != table.KindNull {
		return nil, fmt.Errorf("engine: LIKE applied to %s", kind)
	}
	pattern := p.pattern
	return func(row table.Tuple) bool {
		v := f(row)
		if v.Kind() != table.KindString {
			return false
		}
		return table.Like(v.AsString(), pattern)
	}, nil
}

func (p likePred) appendKey(dst []byte, s outSchema) []byte {
	return appendKeyString(p.col.appendKey(append(dst, 'l'), s), p.pattern)
}

func (p likePred) String() string {
	return fmt.Sprintf("%s LIKE '%s'", p.col, p.pattern)
}

// In matches a scalar against a list of constant values.
func In(col Scalar, values ...table.Value) Predicate { return inPred{col, values} }

type inPred struct {
	col    Scalar
	values []table.Value
}

func (p inPred) bind(s outSchema) (func(table.Tuple) bool, error) {
	f, _, err := p.col.bind(s)
	if err != nil {
		return nil, err
	}
	values := p.values
	return func(row table.Tuple) bool {
		v := f(row)
		for _, w := range values {
			if table.Equal(v, w) {
				return true
			}
		}
		return false
	}, nil
}

func (p inPred) appendKey(dst []byte, s outSchema) []byte {
	dst = appendKeyInt(p.col.appendKey(append(dst, 'i'), s), len(p.values))
	for _, v := range p.values {
		dst = appendKeyValue(dst, v)
	}
	return dst
}

func (p inPred) String() string {
	parts := make([]string, len(p.values))
	for i, v := range p.values {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s IN (%s)", p.col, strings.Join(parts, ", "))
}

// IsNotNull matches rows where the scalar is non-NULL, used by the SPU
// hardness construction of Theorem 3.2 ("adding a selection criterion to Q
// to avoid NULL results").
func IsNotNull(col Scalar) Predicate { return notNullPred{col} }

type notNullPred struct{ col Scalar }

func (p notNullPred) bind(s outSchema) (func(table.Tuple) bool, error) {
	f, _, err := p.col.bind(s)
	if err != nil {
		return nil, err
	}
	return func(row table.Tuple) bool { return !f(row).IsNull() }, nil
}

func (p notNullPred) appendKey(dst []byte, s outSchema) []byte {
	return p.col.appendKey(append(dst, 'n'), s)
}

func (p notNullPred) String() string { return p.col.String() + " IS NOT NULL" }

// And conjoins predicates; with no arguments it is the always-true
// predicate.
func And(ps ...Predicate) Predicate { return andPred{ps} }

type andPred struct{ ps []Predicate }

func (p andPred) bind(s outSchema) (func(table.Tuple) bool, error) {
	fs := make([]func(table.Tuple) bool, len(p.ps))
	for i, sub := range p.ps {
		f, err := sub.bind(s)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return func(row table.Tuple) bool {
		for _, f := range fs {
			if !f(row) {
				return false
			}
		}
		return true
	}, nil
}

func (p andPred) appendKey(dst []byte, s outSchema) []byte {
	return appendKeyPreds(append(dst, '&'), p.ps, s)
}

func (p andPred) String() string { return joinPredStrings(p.ps, " AND ") }

// Or disjoins predicates; with no arguments it is the always-false
// predicate.
func Or(ps ...Predicate) Predicate { return orPred{ps} }

type orPred struct{ ps []Predicate }

func (p orPred) bind(s outSchema) (func(table.Tuple) bool, error) {
	fs := make([]func(table.Tuple) bool, len(p.ps))
	for i, sub := range p.ps {
		f, err := sub.bind(s)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return func(row table.Tuple) bool {
		for _, f := range fs {
			if f(row) {
				return true
			}
		}
		return false
	}, nil
}

func (p orPred) appendKey(dst []byte, s outSchema) []byte {
	return appendKeyPreds(append(dst, '|'), p.ps, s)
}

func (p orPred) String() string { return joinPredStrings(p.ps, " OR ") }

// Not negates a predicate. Negation inside selection conditions is allowed
// in the SPJU fragment (paper Section 2.1).
func Not(p Predicate) Predicate { return notPred{p} }

type notPred struct{ p Predicate }

func (p notPred) bind(s outSchema) (func(table.Tuple) bool, error) {
	f, err := p.p.bind(s)
	if err != nil {
		return nil, err
	}
	return func(row table.Tuple) bool { return !f(row) }, nil
}

func (p notPred) appendKey(dst []byte, s outSchema) []byte {
	return p.p.appendKey(append(dst, '!'), s)
}

func (p notPred) String() string { return "NOT (" + p.p.String() + ")" }

// appendKeyPreds appends the count and then the keys of a connective's
// operands.
func appendKeyPreds(dst []byte, ps []Predicate, s outSchema) []byte {
	dst = appendKeyInt(dst, len(ps))
	for _, p := range ps {
		dst = p.appendKey(dst, s)
	}
	return dst
}

func joinPredStrings(ps []Predicate, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, sep)
}
