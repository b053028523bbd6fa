package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/datagen"
	"qres/internal/engine"
	"qres/internal/obs"
	"qres/internal/sqlparse"
	"qres/internal/table"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

// equivalenceWorkers are the engine worker counts every equivalence test
// exercises against the materializing reference; 1 is the serial streaming
// path, the rest fan out through the morsel exchange. The tiny morsel size
// forces multi-morsel execution even on test-sized relations.
var equivalenceWorkers = []int{1, 2, 4, 8}

const testMorselSize = 16

// assertEquivalent runs plan on every executor — the serial streaming path
// (Run, which rewrites and compiles to iterators), the morsel-parallel
// path for each worker count, and the pinned materializing reference
// (RunReference) — and requires row-for-row identical results: same
// columns, same row order, same tuples, same provenance expressions.
// Every worker count also runs three times on a fresh build cache — cold
// (keys first seen), seen (builds kept) and hit (builds reused) — and once
// more on the previous worker count's cache, whose kept builds were
// partitioned for that count.
func assertEquivalent(t *testing.T, udb *uncertain.DB, plan engine.Node) {
	t.Helper()
	want, werr := engine.RunReference(udb, plan)
	check := func(mode string, got *engine.Result, gerr error) {
		t.Helper()
		assertMatchesReference(t, want, werr, got, gerr, mode)
	}
	var prev *engine.BuildCache
	for _, w := range equivalenceWorkers {
		x := engine.WithMorselSize(engine.Exec{Workers: w}, testMorselSize)
		mode, run := fmt.Sprintf("parallel(%d)", w), func() (*engine.Result, error) { return engine.RunWith(udb, plan, x) }
		if w == 1 {
			mode, run = "streaming", func() (*engine.Result, error) { return engine.Run(udb, plan) }
		}
		got, gerr := run()
		check(mode, got, gerr)
		cache := engine.NewBuildCache(udb)
		x.Builds = cache
		for _, phase := range []string{"cold", "seen", "hit"} {
			got, gerr := engine.RunWith(udb, plan, x)
			check(mode+","+phase, got, gerr)
		}
		if prev != nil {
			x.Builds = prev
			got, gerr := engine.RunWith(udb, plan, x)
			check(mode+",hit on the previous worker count's cache", got, gerr)
		}
		prev = cache
	}
}

// assertMatchesReference requires an executor's outcome to equal the
// reference's: the same error text, or the same result.
func assertMatchesReference(t *testing.T, want *engine.Result, werr error, got *engine.Result, gerr error, mode string) {
	t.Helper()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("error mismatch: reference=%v %s=%v", werr, mode, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("error text mismatch:\nreference: %v\n%s: %v", werr, mode, gerr)
		}
		return
	}
	assertSameResult(t, want, got, mode)
}

// assertSameResult requires got to equal want row for row: same columns,
// same row order, same tuples, same provenance expressions.
func assertSameResult(t *testing.T, want, got *engine.Result, mode string) {
	t.Helper()
	if wh, gh := want.Header(), got.Header(); wh != gh {
		t.Fatalf("column mismatch: reference %q vs %s %q", wh, mode, gh)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count mismatch: reference %d vs %s %d", len(want.Rows), mode, len(got.Rows))
	}
	for i := range want.Rows {
		if wk, gk := want.Rows[i].Tuple.Key(), got.Rows[i].Tuple.Key(); wk != gk {
			t.Fatalf("row %d tuple mismatch: reference %s vs %s %s",
				i, want.Rows[i].Tuple, mode, got.Rows[i].Tuple)
		}
		if !want.Rows[i].Prov.Equal(got.Rows[i].Prov) {
			t.Fatalf("row %d provenance mismatch: reference %s vs %s %s",
				i, want.Rows[i].Prov, mode, got.Rows[i].Prov)
		}
	}
}

// assertEquivalentErr asserts every executor fails with the same error
// text — including the parallel path, whose compile falls back to the
// serial compiler on any binding error so error fidelity is preserved.
func assertEquivalentErr(t *testing.T, udb *uncertain.DB, plan engine.Node) {
	t.Helper()
	_, werr := engine.RunReference(udb, plan)
	_, gerr := engine.Run(udb, plan)
	if werr == nil || gerr == nil {
		t.Fatalf("expected both executors to fail: reference=%v streaming=%v", werr, gerr)
	}
	if werr.Error() != gerr.Error() {
		t.Fatalf("error text mismatch:\nreference: %v\nstreaming: %v", werr, gerr)
	}
	_, perr := engine.RunWith(udb, plan, engine.WithMorselSize(engine.Exec{Workers: 4}, testMorselSize))
	if perr == nil || perr.Error() != werr.Error() {
		t.Fatalf("error text mismatch:\nreference: %v\nparallel(4): %v", werr, perr)
	}
}

// TestStreamingMatchesReferencePaper covers the running example and plan
// variants layered on it: sorting, limiting, top-k, non-distinct
// projection and unions.
func TestStreamingMatchesReferencePaper(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	base := testdb.PaperQuery()
	plans := map[string]engine.Node{
		"paper":      base,
		"sorted":     engine.Sort(base, engine.SortKey{By: engine.Col("", "Acquired")}),
		"sortedDesc": engine.Sort(base, engine.SortKey{By: engine.Col("", "Institute"), Desc: true}),
		"limited":    engine.Limit(base, 2),
		"topk": engine.Limit(
			engine.Sort(base, engine.SortKey{By: engine.Col("", "Acquired")}), 2),
		"unlimited": engine.Limit(base, -1),
		"union":     engine.Union(base, base),
		"projectDup": engine.Project(
			engine.Scan("Roles", "r"), false, engine.Col("r", "Organization")),
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) { assertEquivalent(t, udb, plan) })
	}
}

// TestStreamingMatchesReferenceTPCH runs every TPC-H-like workload query
// in the generator's catalog through both executors.
func TestStreamingMatchesReferenceTPCH(t *testing.T) {
	udb := datagen.TPCH(datagen.TPCHConfig{SF: 0.004, Seed: 7})
	for name, sql := range datagen.TPCHQueries() {
		t.Run(name, func(t *testing.T) {
			plan, err := sqlparse.ParseAndCompile(sql, udb.Data())
			if err != nil {
				t.Fatalf("compile %s: %v", name, err)
			}
			assertEquivalent(t, udb, plan)
		})
	}
}

// TestStreamingMatchesReferenceNELL runs the NELL knowledge-base workload
// queries through both executors.
func TestStreamingMatchesReferenceNELL(t *testing.T) {
	udb := datagen.NELL(datagen.DefaultNELLConfig(11))
	for name, sql := range datagen.NELLQueries() {
		t.Run(name, func(t *testing.T) {
			plan, err := sqlparse.ParseAndCompile(sql, udb.Data())
			if err != nil {
				t.Fatalf("compile %s: %v", name, err)
			}
			assertEquivalent(t, udb, plan)
		})
	}
}

// edgeDB builds a small uncertain database exercising the operator edge
// cases: an empty relation, NULL join keys on both sides, and duplicate
// rows for distinct/union merging.
func edgeDB() *uncertain.DB {
	db := table.NewDatabase()
	col := func(name string, k table.Kind) table.Column { return table.Column{Name: name, Kind: k} }

	left := table.NewRelation("L", table.NewSchema(
		col("k", table.KindInt), col("v", table.KindString)))
	left.MustAppend(table.Tuple{table.Int(1), table.String_("a")}, nil)
	left.MustAppend(table.Tuple{table.Null(), table.String_("null-key")}, nil)
	left.MustAppend(table.Tuple{table.Int(2), table.String_("b")}, nil)
	left.MustAppend(table.Tuple{table.Int(1), table.String_("a")}, nil) // duplicate of row 0
	db.MustAdd(left)

	right := table.NewRelation("R", table.NewSchema(
		col("k", table.KindInt), col("w", table.KindString)))
	right.MustAppend(table.Tuple{table.Int(1), table.String_("x")}, nil)
	right.MustAppend(table.Tuple{table.Null(), table.String_("null-key")}, nil)
	right.MustAppend(table.Tuple{table.Int(3), table.String_("z")}, nil)
	db.MustAdd(right)

	empty := table.NewRelation("E", table.NewSchema(
		col("k", table.KindInt), col("v", table.KindString)))
	db.MustAdd(empty)

	return uncertain.New(db)
}

// TestStreamingEdgeCases runs the operator edge cases the streaming path
// must preserve — empty inputs, NULL join keys (the equiKey miss path on
// both probe and build sides), duplicate elimination in Union and
// DISTINCT projection, LIMIT 0 — against both executors.
func TestStreamingEdgeCases(t *testing.T) {
	udb := edgeDB()
	join := func(l, r engine.Node, lq, rq string) engine.Node {
		return engine.Join(l, r, engine.Cmp(engine.Col(lq, "k"), engine.OpEq, engine.Col(rq, "k")))
	}
	lScan := func() engine.Node { return engine.Scan("L", "l") }
	rScan := func() engine.Node { return engine.Scan("R", "r") }
	eScan := func() engine.Node { return engine.Scan("E", "e") }
	plans := map[string]engine.Node{
		"emptyScan":      eScan(),
		"emptyLeftJoin":  join(eScan(), rScan(), "e", "r"),
		"emptyRightJoin": join(lScan(), eScan(), "l", "e"),
		"emptyTheta": engine.Join(eScan(), rScan(),
			engine.Cmp(engine.Col("e", "k"), engine.OpLt, engine.Col("r", "k"))),
		"nullKeysHash": join(lScan(), rScan(), "l", "r"),
		"nullKeysTheta": engine.Join(lScan(), rScan(),
			engine.Cmp(engine.Col("l", "k"), engine.OpLe, engine.Col("r", "k"))),
		"distinctDup":     engine.Project(lScan(), true, engine.Col("l", "k"), engine.Col("l", "v")),
		"distinctOfEmpty": engine.Project(eScan(), true, engine.Col("e", "k")),
		"unionDup":        engine.Union(lScan(), eScan(), lScan()),
		"unionProjected": engine.Union(
			engine.Project(lScan(), false, engine.Col("l", "k")),
			engine.Project(rScan(), false, engine.Col("r", "k"))),
		"limitZero": engine.Limit(lScan(), 0),
		"limitZeroTopK": engine.Limit(
			engine.Sort(lScan(), engine.SortKey{By: engine.Col("l", "k")}), 0),
		"limitPastEnd":  engine.Limit(lScan(), 100),
		"sortWithNulls": engine.Sort(lScan(), engine.SortKey{By: engine.Col("l", "k")}),
		"sortWithNullsDesc": engine.Sort(lScan(),
			engine.SortKey{By: engine.Col("l", "k"), Desc: true}),
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) { assertEquivalent(t, udb, plan) })
	}
}

// TestScanWithoutVariables covers a relation added to the data after its
// uncertain database was built: it has no variables, so every executor
// annotates its tuples False, alone and inside a join.
func TestScanWithoutVariables(t *testing.T) {
	udb := edgeDB()
	late := table.NewRelation("Late", table.NewSchema(table.Column{Name: "k", Kind: table.KindInt}))
	late.MustAppend(table.Tuple{table.Int(1)}, nil)
	late.MustAppend(table.Tuple{table.Int(2)}, nil)
	udb.Data().MustAdd(late)
	scan := engine.Scan("Late", "n")
	join := engine.Join(engine.Scan("L", "l"), scan,
		engine.Cmp(engine.Col("l", "k"), engine.OpEq, engine.Col("n", "k")))
	for name, plan := range map[string]engine.Node{"scan": scan, "join": join} {
		t.Run(name, func(t *testing.T) {
			assertEquivalent(t, udb, plan)
			res, err := engine.Run(udb, plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, r := range res.Rows {
				if !r.Prov.Equal(boolexpr.False()) {
					t.Errorf("row %d provenance %s, want False", i, r.Prov)
				}
			}
		})
	}
}

// TestStreamingTopKTieStability pits the bounded-heap top-k against
// stable-sort-then-truncate on an input dominated by key ties: every
// tie must resolve to the earlier input row, in input order.
func TestStreamingTopKTieStability(t *testing.T) {
	db := table.NewDatabase()
	rel := table.NewRelation("T", table.NewSchema(
		table.Column{Name: "grp", Kind: table.KindInt},
		table.Column{Name: "id", Kind: table.KindInt}))
	for i := 0; i < 60; i++ {
		rel.MustAppend(table.Tuple{table.Int(int64(i % 3)), table.Int(int64(i))}, nil)
	}
	db.MustAdd(rel)
	udb := uncertain.New(db)
	for _, k := range []int{0, 1, 2, 5, 59, 60, 61} {
		for _, desc := range []bool{false, true} {
			plan := engine.Limit(engine.Sort(engine.Scan("T", "t"),
				engine.SortKey{By: engine.Col("t", "grp"), Desc: desc}), k)
			t.Run(fmt.Sprintf("k=%d,desc=%v", k, desc), func(t *testing.T) {
				assertEquivalent(t, udb, plan)
			})
		}
	}
}

// TestStreamingErrorFidelity checks the streaming compiler surfaces the
// same errors as the materializing executor, including ones pushdown could
// accidentally repair: an unqualified reference that is ambiguous across a
// self-join must stay ambiguous.
func TestStreamingErrorFidelity(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	selfJoin := engine.Join(
		engine.Scan("Acquisitions", "a"),
		engine.Scan("Acquisitions", "b"),
		engine.And())
	plans := map[string]engine.Node{
		"unknownRelation": engine.Scan("Nope", ""),
		"unknownColumn": engine.Select(engine.Scan("Roles", "r"),
			engine.Cmp(engine.Col("r", "Nope"), engine.OpEq, engine.Const(table.Int(1)))),
		"ambiguousUnqualified": engine.Select(selfJoin,
			engine.Cmp(engine.Col("", "Date"), engine.OpGe, engine.Const(table.Date(2017, 1, 1)))),
		"unionArity": engine.Union(
			engine.Project(engine.Scan("Roles", "r"), false, engine.Col("r", "Member")),
			engine.Project(engine.Scan("Roles", "r"), false,
				engine.Col("r", "Member"), engine.Col("r", "Role"))),
		"pushedUnknownColumn": engine.Select(
			engine.Join(engine.Scan("Acquisitions", "a"), engine.Scan("Roles", "r"), engine.And()),
			engine.Cmp(engine.Col("a", "Nope"), engine.OpEq, engine.Const(table.Int(1)))),
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) { assertEquivalentErr(t, udb, plan) })
	}
}

// TestRewriteShapes pins the rewrite pass's behavior through Shape: pushed
// selections render as Select*, straddling conjuncts merge into the join,
// ORDER BY … LIMIT fuses to TopK, and the original plan is not mutated.
func TestRewriteShapes(t *testing.T) {
	base := testdb.PaperQuery()
	before := engine.Shape(base)
	if want := "Distinct(Select(Join(Join(Scan,Scan),Scan)))"; before != want {
		t.Fatalf("paper plan shape = %q, want %q", before, want)
	}
	after := engine.Shape(engine.Rewrite(base))
	if want := "Distinct(Join(Join(Select*(Scan),Select*(Scan)),Scan))"; after != want {
		t.Errorf("rewritten paper shape = %q, want %q", after, want)
	}
	if again := engine.Shape(base); again != before {
		t.Errorf("Rewrite mutated its input: shape now %q", again)
	}

	topk := engine.Limit(engine.Sort(base, engine.SortKey{By: engine.Col("", "Acquired")}), 3)
	if got := engine.Shape(engine.Rewrite(topk)); !strings.HasPrefix(got, "TopK[3](") {
		t.Errorf("Limit(Sort) did not fuse: %q", got)
	}
	// A negative (unbounded) limit must not fuse.
	all := engine.Limit(engine.Sort(base, engine.SortKey{By: engine.Col("", "Acquired")}), -1)
	if got := engine.Shape(engine.Rewrite(all)); !strings.HasPrefix(got, "Limit[-1](Sort(") {
		t.Errorf("unbounded limit fused unexpectedly: %q", got)
	}
	// An unqualified conjunct stays where the user wrote it.
	unq := engine.Select(
		engine.Join(engine.Scan("Acquisitions", "a"), engine.Scan("Roles", "r"), engine.And()),
		engine.Cmp(engine.Col("", "Role"), engine.OpEq, engine.Const(table.String_("CEO"))))
	if got := engine.Shape(engine.Rewrite(unq)); got != "Select(Join(Scan,Scan))" {
		t.Errorf("unqualified conjunct moved: %q", got)
	}
}

// TestResultStatsCached is the regression test for the
// UniqueVars/MaxTermSize fix: both are computed once and cached, so
// mutating Rows afterwards (or the slice UniqueVars returned) must not
// change later answers.
func TestResultStatsCached(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	vars1 := res.UniqueVars()
	term1 := res.MaxTermSize()
	if len(vars1) == 0 || term1 == 0 {
		t.Fatalf("expected non-trivial stats, got %d vars, term %d", len(vars1), term1)
	}
	// Callers own the returned slice: scribbling on it must not leak into
	// the cache.
	want := append([]boolexpr.Var(nil), vars1...)
	vars1[0] += 999
	// Dropping all rows after the first computation must not change the
	// cached statistics either.
	res.Rows = nil
	vars2 := res.UniqueVars()
	if !equalVars(vars2, want) {
		t.Errorf("UniqueVars changed after mutation: %v vs %v", vars2, want)
	}
	if got := res.MaxTermSize(); got != term1 {
		t.Errorf("MaxTermSize changed after Rows mutation: %d vs %d", got, term1)
	}
}

func equalVars(a, b []boolexpr.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineObservability checks the streaming executor's instrumentation:
// the always-on counters and, with a span sink attached, the per-operator
// query_op spans and the rewrite annotations on the query_eval span.
func TestEngineObservability(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	reg := obs.NewRegistry()
	sink := &obs.Collector{}
	o := obs.New("test", sink, reg)
	if _, err := engine.RunWith(udb, testdb.PaperQuery(), engine.Exec{Obs: o, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return reg.Counter(name, "test").Value() }
	if got := counter("engine_rows_scanned_total"); got == 0 {
		t.Error("engine_rows_scanned_total not incremented")
	}
	if got := counter("engine_rows_emitted_total"); got == 0 {
		t.Error("engine_rows_emitted_total not incremented")
	}
	if got := counter("engine_predicates_pushed_total"); got != 3 {
		t.Errorf("engine_predicates_pushed_total = %d, want 3 (two scan pushes + one join merge)", got)
	}
	if sink.StageCount(obs.StageQueryEval) != 1 {
		t.Error("missing query_eval span")
	}
	if sink.StageCount(obs.StageQueryOperator) == 0 {
		t.Error("missing query_op spans")
	}
	var rewritten string
	for _, ev := range sink.Events() {
		if ev.Stage != obs.StageQueryEval {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "rewritten" {
				rewritten, _ = a.Value.(string)
			}
		}
	}
	if !strings.Contains(rewritten, "Select*") {
		t.Errorf("query_eval span rewritten shape %q lacks pushdown annotation", rewritten)
	}

	// Without a sink the same run keeps counters but skips per-op spans.
	reg2 := obs.NewRegistry()
	o2 := obs.New("test", nil, reg2)
	if _, err := engine.RunWith(udb, testdb.PaperQuery(), engine.Exec{Obs: o2, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("engine_rows_scanned_total", "test").Value(); got == 0 {
		t.Error("counters must not require a span sink")
	}
}

// TestRunWorldStreaming checks possible-world evaluation (set semantics)
// still matches the provenance-tracking result keys after the streaming
// refactor.
func TestRunWorldStreaming(t *testing.T) {
	db := testdb.PaperDatabase()
	out, err := engine.RunWorld(db, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("expected rows from RunWorld")
	}
	for key, tup := range out {
		if key != tup.Key() {
			t.Errorf("map key %q does not match tuple key %q", key, tup.Key())
		}
	}
}

// TestBuildCacheINPair evaluates two queries whose nation builds print the
// same plan string, because String renders literals unquoted, alternately
// on one build cache: IN ('FRANCE, GERMANY') matches no nation and
// IN ('FRANCE', 'GERMANY') matches two. Every result must equal the
// reference, so the cache must tell the builds apart.
func TestBuildCacheINPair(t *testing.T) {
	udb := datagen.TPCH(datagen.TPCHConfig{SF: 0.002, Seed: 7})
	pair := []string{
		`SELECT DISTINCT c.c_name FROM customer AS c, nation AS n
		 WHERE c.c_nationkey = n.n_nationkey AND n.n_name IN ('FRANCE, GERMANY')`,
		`SELECT DISTINCT c.c_name FROM customer AS c, nation AS n
		 WHERE c.c_nationkey = n.n_nationkey AND n.n_name IN ('FRANCE', 'GERMANY')`,
	}
	plans := make([]engine.Node, len(pair))
	want := make([]*engine.Result, len(pair))
	for i, sql := range pair {
		plan, err := sqlparse.ParseAndCompile(sql, udb.Data())
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = engine.RunReference(udb, plan); err != nil {
			t.Fatal(err)
		}
		plans[i] = plan
	}
	if plans[0].String() != plans[1].String() {
		t.Fatalf("the pair no longer prints alike:\n%s\n%s", plans[0], plans[1])
	}
	if len(want[0].Rows) != 0 || len(want[1].Rows) == 0 {
		t.Fatalf("reference rows %d and %d, want none and some", len(want[0].Rows), len(want[1].Rows))
	}
	reg := obs.NewRegistry()
	x := engine.Exec{Workers: 1, Builds: engine.NewBuildCache(udb), Obs: obs.New("test", nil, reg)}
	for round := 0; round < 3; round++ {
		for i, plan := range plans {
			got, err := engine.RunWith(udb, plan, x)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want[i], got, fmt.Sprintf("round %d, query %d", round, i))
		}
	}
	if hits := reg.Counter("engine_build_cache_hits_total", "test").Value(); hits == 0 {
		t.Error("no build reused: the pair never exercised a hit")
	}
}

// TestBuildCacheForeignDatabase checks that a build cache only serves the
// database it was made for.
func TestBuildCacheForeignDatabase(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	other := engine.NewBuildCache(testdb.PaperUncertainDB())
	if _, err := engine.RunWith(udb, testdb.PaperQuery(), engine.Exec{Builds: other}); err == nil {
		t.Fatal("RunWith accepted a build cache made for another database")
	}
}

// TestBuildCacheObservability checks the cache's counters, its weight
// gauge and the query_eval span's builds_reused attribute.
func TestBuildCacheObservability(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	reg := obs.NewRegistry()
	sink := &obs.Collector{}
	x := engine.Exec{Obs: obs.New("test", sink, reg), Workers: 1, Builds: engine.NewBuildCache(udb)}
	for i := 0; i < 3; i++ {
		if _, err := engine.RunWith(udb, testdb.PaperQuery(), x); err != nil {
			t.Fatal(err)
		}
	}
	hits := reg.Counter("engine_build_cache_hits_total", "test").Value()
	misses := reg.Counter("engine_build_cache_misses_total", "test").Value()
	// The paper plan has two scan builds: seen, kept, then reused.
	if hits != 2 || misses != 4 {
		t.Errorf("hits %d, misses %d; want 2 and 4", hits, misses)
	}
	if got, want := reg.Gauge("engine_build_cache_rows", "test").Value(), float64(x.Builds.Rows()); got != want || got == 0 {
		t.Errorf("engine_build_cache_rows = %g, want %g (non-zero)", got, want)
	}
	var reused []any
	for _, ev := range sink.Events() {
		if ev.Stage != obs.StageQueryEval {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "builds_reused" {
				reused = append(reused, a.Value)
			}
		}
	}
	if fmt.Sprint(reused) != "[0 0 2]" {
		t.Errorf("query_eval builds_reused = %v, want [0 0 2]", reused)
	}
}
