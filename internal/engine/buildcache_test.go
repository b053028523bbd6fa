package engine

import (
	"fmt"
	"testing"

	"qres/internal/table"
	"qres/internal/uncertain"
)

// keptRows returns the number of kept builds in c and their rows.
func keptRows(c *BuildCache) (builds, rows int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.entries {
		if e := el.Value.(*cacheEntry); e.kept {
			builds++
			rows += len(e.rows)
		}
	}
	return builds, rows
}

// runCached evaluates plan over udb with the cache and returns the run's
// counters next to the result, which must equal the reference's.
func runCached(t *testing.T, udb *uncertain.DB, plan Node, c *BuildCache, workers int) *execStats {
	t.Helper()
	want, err := runReference(udb, plan)
	if err != nil {
		t.Fatal(err)
	}
	stats := &execStats{}
	ctx := &compileCtx{src: source{data: udb.Data(), udb: udb}, stats: stats, workers: workers, morsel: 8, builds: c}
	comp, err := compileInput(Rewrite(plan), ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drain(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want.Rows) {
		t.Fatalf("%d rows, reference %d", len(rows), len(want.Rows))
	}
	for i, r := range rows {
		if r.Tuple.Key() != want.Rows[i].Tuple.Key() || !r.Prov.Equal(want.Rows[i].Prov) {
			t.Fatalf("row %d: %s %s, reference %s %s", i, r.Tuple, r.Prov, want.Rows[i].Tuple, want.Rows[i].Prov)
		}
	}
	return stats
}

// TestBuildCacheAdmitsOnSecondSighting pins admission: a key seen once
// retains no rows, the second evaluation keeps its builds, and the third
// reuses them without scanning their relations.
func TestBuildCacheAdmitsOnSecondSighting(t *testing.T) {
	udb := lifetimeDB()
	plan := Join(Join(Scan("A", "a"), Select(Scan("B", "b"), Cmp(Col("b", "k"), OpGe, Const(table.Int(2)))),
		Cmp(Col("a", "k"), OpEq, Col("b", "k"))),
		Scan("C", "c"), Cmp(Col("a", "g"), OpLe, Col("c", "g")))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := NewBuildCache(udb)
			st := runCached(t, udb, plan, c, workers)
			if builds, rows := keptRows(c); builds != 0 || rows != 0 {
				t.Fatalf("after one evaluation: %d builds of %d rows kept, want none", builds, rows)
			}
			if st.missed != 2 || st.reused != 0 || c.Rows() != 2 {
				t.Fatalf("first sighting: missed %d, reused %d, weight %d; want 2, 0, 2", st.missed, st.reused, c.Rows())
			}
			runCached(t, udb, plan, c, workers)
			builds, rows := keptRows(c)
			if builds != 2 || rows == 0 || c.Rows() != rows {
				t.Fatalf("second sighting: %d builds of %d rows kept, weight %d", builds, rows, c.Rows())
			}
			st = runCached(t, udb, plan, c, workers)
			if st.reused != 2 || st.missed != 0 {
				t.Fatalf("third evaluation: reused %d, missed %d; want 2, 0", st.reused, st.missed)
			}
			if a, _ := udb.Data().Relation("A"); st.scanned != int64(a.Len()) {
				t.Errorf("third evaluation scanned %d rows, want only A's %d", st.scanned, a.Len())
			}
		})
	}
}

// TestBuildCacheBound evaluates, over a database of ten tuples, far more
// distinct build keys than it has tuples, each twice so that it is kept:
// the cache's weight never exceeds the tuple count and every result still
// equals the reference.
func TestBuildCacheBound(t *testing.T) {
	db := table.NewDatabase()
	add := func(name string, n int) {
		rel := table.NewRelation(name, table.NewSchema(
			table.Column{Name: "k", Kind: table.KindInt}, table.Column{Name: "v", Kind: table.KindInt}))
		for i := 0; i < n; i++ {
			rel.MustAppend(table.Tuple{table.Int(int64(i % 3)), table.Int(int64(i))}, nil)
		}
		db.MustAdd(rel)
	}
	add("T", 6)
	add("U", 4)
	udb := uncertain.New(db)
	limit := db.TotalTuples()
	c := NewBuildCache(udb)
	for i := 0; i < 4*limit; i++ {
		plan := Join(Scan("U", "u"), Select(Scan("T", "t"), Cmp(Col("t", "v"), OpGe, Const(table.Int(int64(i%7))))),
			Cmp(Col("u", "k"), OpEq, Col("t", "k")))
		if i%3 == 0 {
			plan = Join(Scan("U", "u"), Select(Scan("T", "t"), In(Col("t", "v"), table.Int(int64(i)))),
				Cmp(Col("u", "k"), OpEq, Col("t", "k")))
		}
		for pass := 0; pass < 2; pass++ {
			runCached(t, udb, plan, c, 1)
			if w := c.Rows(); w > limit {
				t.Fatalf("query %d pass %d: cache weight %d exceeds the %d tuples", i, pass, w, limit)
			}
		}
	}
	if builds, _ := keptRows(c); builds == 0 {
		t.Error("no build kept: the bound test never filled the cache")
	}
}
