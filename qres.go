// Package qres is a query-guided uncertainty-resolution engine for
// relational data, implementing the framework of "Query-Guided Resolution
// in Uncertain Databases" (Drien, Freiman, Amarilli, Amsterdamer, SIGMOD
// 2023).
//
// The workflow mirrors the paper's architecture:
//
//  1. Build an uncertain database: every inserted tuple may be incorrect,
//     and carries metadata (source, category, content attributes) that
//     correlates with its correctness.
//  2. Run an SPJU SQL query (select/project/join/union). The engine tracks
//     Boolean provenance: each output row is annotated with a monotone DNF
//     expression over tuple-correctness variables.
//  3. Resolve: given an Oracle that can verify individual tuples (a domain
//     expert, a crowd, a trusted source), qres iteratively selects the
//     cheapest sequence of verifications — combining learned answer
//     probabilities, Boolean-evaluation utility functions and active
//     learning — until the exact set of correct query answers is known.
//
// A minimal end-to-end use:
//
//	db := qres.New()
//	db.MustCreateTable("facts",
//		qres.Column{Name: "subject", Kind: qres.String},
//		qres.Column{Name: "object", Kind: qres.String})
//	db.MustInsert("facts", []any{"volkswagen", "audi"},
//		map[string]string{"source": "web-01.example.com"})
//	res, _ := db.Query(`SELECT DISTINCT subject FROM facts`)
//	out, _ := db.Resolve(res, oracle, qres.WithStrategy("general"))
//	for _, row := range out.CorrectRows { ... }
package qres

import (
	"errors"
	"fmt"
	"time"

	"qres/internal/engine"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// Kind is the type of a column.
type Kind uint8

// Column kinds.
const (
	Int Kind = iota
	Float
	String
	DateKind
)

func (k Kind) internal() table.Kind {
	switch k {
	case Int:
		return table.KindInt
	case Float:
		return table.KindFloat
	case DateKind:
		return table.KindDate
	default:
		return table.KindString
	}
}

// Column declares one attribute of a table.
type Column struct {
	Name string
	Kind Kind
}

// Date is a calendar-date literal for Insert values.
type Date struct {
	Year, Month, Day int
}

// TupleRef identifies one inserted tuple: the table name and the 0-based
// insertion index within it. Oracles receive TupleRefs and answer whether
// the referenced tuple is correct.
type TupleRef struct {
	Table string
	Index int
}

// String renders the reference as "table[index]".
func (r TupleRef) String() string { return fmt.Sprintf("%s[%d]", r.Table, r.Index) }

// DB is an uncertain database under construction and, after the first
// query, a frozen queryable instance. A DB is not safe for concurrent
// mutation; freeze it (by querying) before sharing.
type DB struct {
	data   *table.Database
	udb    *uncertain.DB
	builds *engine.BuildCache // join builds reused across queries, made on freeze
	frozen bool

	// sharedRepo is the database's shared Known Probes Repository handle
	// (see ProbeRepository / WithRepository), created lazily.
	sharedRepo *Repository
}

// New returns an empty uncertain database.
func New() *DB {
	return &DB{data: table.NewDatabase()}
}

// CreateTable declares a table. All tables must be created (and rows
// inserted) before the first Query.
func (db *DB) CreateTable(name string, cols ...Column) error {
	if db.frozen {
		return errors.New("qres: database is frozen (a query has run); create tables first")
	}
	if len(cols) == 0 {
		return fmt.Errorf("qres: table %q needs at least one column", name)
	}
	tcols := make([]table.Column, len(cols))
	for i, c := range cols {
		tcols[i] = table.Column{Name: c.Name, Kind: c.Kind.internal()}
	}
	return db.data.Add(table.NewRelation(name, table.NewSchema(tcols...)))
}

// MustCreateTable is CreateTable panicking on error, for static setup.
func (db *DB) MustCreateTable(name string, cols ...Column) {
	if err := db.CreateTable(name, cols...); err != nil {
		panic(err)
	}
}

// Insert appends one row. Values map positionally onto the table's
// columns; supported Go types are int, int64, float64, string, Date,
// time.Time (stored as a date) and nil (NULL). meta is the tuple's
// metadata — the attributes the resolution Learner trains on (e.g.
// "source", "category"); it may be nil. Insert returns the new tuple's
// reference.
func (db *DB) Insert(tableName string, values []any, meta map[string]string) (TupleRef, error) {
	if db.frozen {
		return TupleRef{}, errors.New("qres: database is frozen (a query has run)")
	}
	rel, ok := db.data.Relation(tableName)
	if !ok {
		return TupleRef{}, fmt.Errorf("qres: unknown table %q", tableName)
	}
	tup := make(table.Tuple, len(values))
	for i, v := range values {
		tv, err := toValue(v)
		if err != nil {
			return TupleRef{}, fmt.Errorf("qres: column %d: %w", i, err)
		}
		tup[i] = tv
	}
	var m table.Metadata
	if meta != nil {
		m = table.Metadata(meta).Clone()
	}
	idx, err := rel.Append(tup, m)
	if err != nil {
		return TupleRef{}, err
	}
	return TupleRef{Table: tableName, Index: idx}, nil
}

// MustInsert is Insert panicking on error.
func (db *DB) MustInsert(tableName string, values []any, meta map[string]string) TupleRef {
	ref, err := db.Insert(tableName, values, meta)
	if err != nil {
		panic(err)
	}
	return ref
}

// toValue converts a Go value to a storage value.
func toValue(v any) (table.Value, error) {
	switch x := v.(type) {
	case nil:
		return table.Null(), nil
	case int:
		return table.Int(int64(x)), nil
	case int64:
		return table.Int(x), nil
	case float64:
		return table.Float(x), nil
	case string:
		return table.String_(x), nil
	case Date:
		return table.Date(x.Year, x.Month, x.Day), nil
	case time.Time:
		return table.Date(x.Year(), int(x.Month()), x.Day()), nil
	default:
		return table.Value{}, fmt.Errorf("unsupported value type %T", v)
	}
}

// freeze annotates every tuple with its correctness variable and makes
// the build cache later queries share. Called implicitly by the first
// Query.
func (db *DB) freeze() {
	if !db.frozen {
		db.udb = uncertain.New(db.data)
		db.builds = engine.NewBuildCache(db.udb)
		db.frozen = true
	}
}

// NumTuples returns the number of inserted tuples across all tables.
func (db *DB) NumTuples() int { return db.data.TotalTuples() }

// Tables returns the table names in creation order.
func (db *DB) Tables() []string { return db.data.Names() }

// Tuple returns the rendered values and the metadata of a tuple.
func (db *DB) Tuple(ref TupleRef) (values []string, meta map[string]string, ok bool) {
	rel, found := db.data.Relation(ref.Table)
	if !found || ref.Index < 0 || ref.Index >= rel.Len() {
		return nil, nil, false
	}
	tup := rel.At(ref.Index)
	values = make([]string, len(tup))
	for i, v := range tup {
		values[i] = v.String()
	}
	meta = map[string]string(rel.MetaAt(ref.Index).Clone())
	return values, meta, true
}
