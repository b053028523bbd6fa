package engine

import (
	"errors"
	"fmt"
	"testing"

	"qres/internal/table"
	"qres/internal/uncertain"
)

// errBuildInput is the failure countingInput injects mid-drain.
var errBuildInput = errors.New("build input failed")

// countingInput wraps a join's build input and counts the Open, Next and
// Close calls it receives. With failAfter > 0, Next fails once that many
// rows have been returned.
type countingInput struct {
	in                   iter
	opens, nexts, closes int
	failAfter, rows      int
}

func (c *countingInput) Open() error {
	c.opens++
	return c.in.Open()
}

func (c *countingInput) Next() (Row, bool, error) {
	c.nexts++
	if c.failAfter > 0 && c.rows >= c.failAfter {
		return Row{}, false, errBuildInput
	}
	r, ok, err := c.in.Next()
	if ok {
		c.rows++
	}
	return r, ok, err
}

func (c *countingInput) Close() {
	c.closes++
	c.in.Close()
}

// buildsOf returns the join builds of a compiled tree in compile order.
func buildsOf(it iter) []*joinBuild {
	switch t := it.(type) {
	case *hashProbeIter:
		return append(buildsOf(t.in), t.build)
	case *loopProbeIter:
		return append(buildsOf(t.in), t.build)
	case *exchangeIter:
		return t.sh.buildOrder
	case *limitIter:
		return buildsOf(t.in)
	}
	return nil
}

// lifetimeDB holds three small relations; A splits into five morsels of
// eight rows.
func lifetimeDB() *uncertain.DB {
	db := table.NewDatabase()
	add := func(name string, n int, cols ...string) {
		schema := make([]table.Column, len(cols))
		for i, c := range cols {
			schema[i] = table.Column{Name: c, Kind: table.KindInt}
		}
		rel := table.NewRelation(name, table.NewSchema(schema...))
		for i := 0; i < n; i++ {
			tup := make(table.Tuple, len(cols))
			for j := range tup {
				tup[j] = table.Int(int64((i * (j + 3)) % 7))
			}
			rel.MustAppend(tup, nil)
		}
		db.MustAdd(rel)
	}
	add("A", 40, "k", "g")
	add("B", 10, "k")
	add("C", 6, "g")
	return uncertain.New(db)
}

// TestJoinBuildLifetime pins the build lifetime for serial trees and for
// 4-worker exchanges: every join's build input is opened at most once and
// closed exactly once whether the plan drains fully, closes before its
// first Next, or fails mid-build, and under LIMIT 0 it is never pulled.
func TestJoinBuildLifetime(t *testing.T) {
	udb := lifetimeDB()
	on := func(op CmpOp, l, r string, col string) Predicate {
		return Cmp(Col(l, col), op, Col(r, col))
	}
	joins := map[string]func() Node{
		"equi": func() Node {
			return Join(Join(Scan("A", "a"), Scan("B", "b"), on(OpEq, "a", "b", "k")),
				Scan("C", "c"), on(OpEq, "a", "c", "g"))
		},
		"theta": func() Node {
			return Join(Join(Scan("A", "a"), Scan("B", "b"), on(OpLt, "a", "b", "k")),
				Scan("C", "c"), on(OpLe, "a", "c", "g"))
		},
	}
	cases := []struct {
		name      string
		limitZero bool
		failAfter int
		run       func(c compiled) error
	}{
		{name: "drain", run: func(c compiled) error { _, err := drain(c); return err }},
		{name: "closeBeforeNext", run: func(c compiled) error {
			if err := c.it.Open(); err != nil {
				return err
			}
			c.it.Close()
			return nil
		}},
		{name: "failMidBuild", failAfter: 2, run: func(c compiled) error {
			if _, err := drain(c); !errors.Is(err, errBuildInput) {
				return fmt.Errorf("drain error = %v, want %v", err, errBuildInput)
			}
			return nil
		}},
		{name: "limitZero", limitZero: true, run: func(c compiled) error {
			rows, err := drain(c)
			if err == nil && len(rows) != 0 {
				err = fmt.Errorf("LIMIT 0 returned %d rows", len(rows))
			}
			return err
		}},
	}
	for kind, plan := range joins {
		for _, workers := range []int{1, 4} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s,workers=%d/%s", kind, workers, tc.name), func(t *testing.T) {
					n := plan()
					if tc.limitZero {
						n = Limit(n, 0)
					}
					ctx := &compileCtx{src: source{data: udb.Data(), udb: udb}, stats: &execStats{}, workers: workers, morsel: 8}
					c, err := compileInput(n, ctx)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := c.it.(*exchangeIter); ok != (workers > 1 && !tc.limitZero) {
						t.Fatalf("root %T: exchange compiled = %v", c.it, ok)
					}
					builds := buildsOf(c.it)
					if len(builds) != 2 {
						t.Fatalf("found %d builds, want 2", len(builds))
					}
					inputs := make([]*countingInput, len(builds))
					for i, b := range builds {
						inputs[i] = &countingInput{in: b.in}
						b.in = inputs[i]
					}
					inputs[0].failAfter = tc.failAfter
					if err := tc.run(c); err != nil {
						t.Fatal(err)
					}
					for i, in := range inputs {
						if in.opens > 1 || in.closes != 1 {
							t.Errorf("build %d input: %d opens, %d closes; want at most 1 open and exactly 1 close",
								i, in.opens, in.closes)
						}
						if tc.limitZero && in.nexts != 0 {
							t.Errorf("build %d input pulled %d times under LIMIT 0", i, in.nexts)
						}
					}
				})
			}
		}
	}
}
