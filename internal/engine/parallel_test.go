package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qres/internal/datagen"
	"qres/internal/engine"
	"qres/internal/obs"
	"qres/internal/sqlparse"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// propDB builds the uncertain database the randomized-plan property test
// runs against: three relations sharing column names (so random equi-joins
// bind), with NULL keys, duplicate keys, and enough rows to split into
// many morsels at the test morsel size.
func propDB(t *testing.T) *uncertain.DB {
	t.Helper()
	db := table.NewDatabase()
	col := func(name string, kind table.Kind) table.Column {
		return table.Column{Name: name, Kind: kind}
	}
	rng := rand.New(rand.NewSource(17))

	a := table.NewRelation("A", table.NewSchema(
		col("k", table.KindInt), col("g", table.KindInt), col("s", table.KindString)))
	for i := 0; i < 300; i++ {
		k := table.Int(int64(rng.Intn(40)))
		if rng.Intn(20) == 0 {
			k = table.Null() // NULL keys never join
		}
		a.MustAppend(table.Tuple{
			k,
			table.Int(int64(rng.Intn(6))),
			table.String_(fmt.Sprintf("a%d", rng.Intn(10))),
		}, nil)
	}
	db.MustAdd(a)

	b := table.NewRelation("B", table.NewSchema(
		col("k", table.KindInt), col("w", table.KindString)))
	for i := 0; i < 90; i++ {
		b.MustAppend(table.Tuple{
			table.Int(int64(rng.Intn(40))),
			table.String_(fmt.Sprintf("w%d", rng.Intn(7))),
		}, nil)
	}
	db.MustAdd(b)

	c := table.NewRelation("C", table.NewSchema(
		col("g", table.KindInt), col("c", table.KindString)))
	for i := 0; i < 25; i++ {
		c.MustAppend(table.Tuple{
			table.Int(int64(rng.Intn(6))),
			table.String_(fmt.Sprintf("c%d", rng.Intn(5))),
		}, nil)
	}
	db.MustAdd(c)

	return uncertain.New(db)
}

// planGen generates random plans over the property database. Every plan
// tracks its output columns (qualifier, name) so selections, projections
// and joins always bind; error-path fidelity has its own test.
type planGen struct {
	rng   *rand.Rand
	alias int
}

// genCol is one column of a generated plan's output schema.
type genCol struct {
	qual, name string
	intKind    bool
}

func (g *planGen) nextAlias() string {
	g.alias++
	return fmt.Sprintf("t%d", g.alias)
}

// unambiguousCols filters cols to those a Col reference resolves uniquely:
// qualified columns (aliases are unique) and unqualified names occurring
// once. Projection and union outputs are unqualified, so joining them can
// otherwise make references ambiguous — a legitimate bind error, but the
// property test wants plans that run.
func unambiguousCols(cols []genCol) []genCol {
	count := map[string]int{}
	for _, c := range cols {
		count[c.name]++
	}
	var out []genCol
	for _, c := range cols {
		if c.qual != "" || count[c.name] == 1 {
			out = append(out, c)
		}
	}
	return out
}

// firstInt returns the first int-kinded column, if any.
func firstInt(cols []genCol) (genCol, bool) {
	for _, c := range cols {
		if c.intKind {
			return c, true
		}
	}
	return genCol{}, false
}

// genScan picks a base relation under a fresh alias.
func (g *planGen) genScan() (engine.Node, []genCol) {
	al := g.nextAlias()
	switch g.rng.Intn(3) {
	case 0:
		return engine.Scan("A", al), []genCol{
			{al, "k", true}, {al, "g", true}, {al, "s", false}}
	case 1:
		return engine.Scan("B", al), []genCol{{al, "k", true}, {al, "w", false}}
	default:
		return engine.Scan("C", al), []genCol{{al, "g", true}, {al, "c", false}}
	}
}

// genPred builds a random predicate over the unambiguous columns of cand:
// a column/constant or column/column comparison.
func (g *planGen) genPred(cand []genCol) engine.Predicate {
	ops := []engine.CmpOp{engine.OpEq, engine.OpNe, engine.OpLt, engine.OpLe, engine.OpGt, engine.OpGe}
	op := ops[g.rng.Intn(len(ops))]
	c := cand[g.rng.Intn(len(cand))]
	if g.rng.Intn(3) == 0 {
		// column-vs-column of matching kind, if one exists
		for _, other := range cand {
			if other != c && other.intKind == c.intKind {
				return engine.Cmp(engine.Col(c.qual, c.name), op, engine.Col(other.qual, other.name))
			}
		}
	}
	var konst engine.Scalar
	if c.intKind {
		konst = engine.Const(table.Int(int64(g.rng.Intn(40))))
	} else {
		konst = engine.Const(table.String_(fmt.Sprintf("a%d", g.rng.Intn(10))))
	}
	return engine.Cmp(engine.Col(c.qual, c.name), op, konst)
}

// genJoin joins two generated subtrees on a shared column name (k or g)
// when both sides expose one unambiguously, falling back to a theta join
// on int columns, or to the bare left subtree when no unambiguous pair
// exists.
func (g *planGen) genJoin(depth int) (engine.Node, []genCol) {
	l, lc := g.gen(depth - 1)
	r, rc := g.gen(depth - 1)
	out := append(append([]genCol{}, lc...), rc...)
	// Join predicates bind against the concatenated schema, so candidates
	// must be unambiguous in the combined column set.
	cand := unambiguousCols(out)
	pick := func(side []genCol, name string) (genCol, bool) {
		for _, c := range cand {
			if c.name != name {
				continue
			}
			for _, s := range side {
				if s == c {
					return c, true
				}
			}
		}
		return genCol{}, false
	}
	for _, name := range []string{"k", "g"} {
		la, lok := pick(lc, name)
		ra, rok := pick(rc, name)
		if lok && rok {
			on := engine.Cmp(engine.Col(la.qual, la.name), engine.OpEq, engine.Col(ra.qual, ra.name))
			return engine.Join(l, r, on), out
		}
	}
	// No shared key: theta join on any unambiguous int column pair.
	var lcand, rcand []genCol
	for _, c := range cand {
		for _, s := range lc {
			if s == c {
				lcand = append(lcand, c)
			}
		}
		for _, s := range rc {
			if s == c {
				rcand = append(rcand, c)
			}
		}
	}
	li, lok := firstInt(lcand)
	ri, rok := firstInt(rcand)
	if !lok || !rok {
		return l, lc
	}
	on := engine.Cmp(engine.Col(li.qual, li.name), engine.OpLt, engine.Col(ri.qual, ri.name))
	return engine.Join(l, r, on), out
}

// gen produces one random subtree of the given maximum operator depth.
func (g *planGen) gen(depth int) (engine.Node, []genCol) {
	if depth <= 0 {
		return g.genScan()
	}
	switch g.rng.Intn(6) {
	case 0:
		return g.genScan()
	case 1:
		in, cols := g.gen(depth - 1)
		cand := unambiguousCols(cols)
		if len(cand) == 0 {
			return in, cols
		}
		return engine.Select(in, g.genPred(cand)), cols
	case 2:
		return g.genJoin(depth)
	case 3:
		in, cols := g.gen(depth - 1)
		cand := unambiguousCols(cols)
		if len(cand) == 0 {
			return in, cols
		}
		n := 1 + g.rng.Intn(len(cand))
		perm := g.rng.Perm(len(cand))[:n]
		scalars := make([]engine.Scalar, n)
		out := make([]genCol, n)
		for i, p := range perm {
			scalars[i] = engine.Col(cand[p].qual, cand[p].name)
			out[i] = genCol{"", cand[p].name, cand[p].intKind}
		}
		return engine.Project(in, g.rng.Intn(2) == 0, scalars...), out
	case 4:
		// UNION of two single-int-column projections, so arity and kinds
		// always line up.
		l, lc := g.gen(depth - 1)
		r, rc := g.gen(depth - 1)
		li, lok := firstInt(unambiguousCols(lc))
		ri, rok := firstInt(unambiguousCols(rc))
		if !lok || !rok {
			return l, lc
		}
		u := engine.Union(
			engine.Project(l, false, engine.Col(li.qual, li.name)),
			engine.Project(r, false, engine.Col(ri.qual, ri.name)))
		return u, []genCol{{"", li.name, true}}
	default:
		in, cols := g.gen(depth - 1)
		cand := unambiguousCols(cols)
		if len(cand) == 0 {
			return in, cols
		}
		c := cand[g.rng.Intn(len(cand))]
		sorted := engine.Sort(in, engine.SortKey{
			By: engine.Col(c.qual, c.name), Desc: g.rng.Intn(2) == 0})
		switch g.rng.Intn(3) {
		case 0:
			return sorted, cols
		case 1:
			return engine.Limit(sorted, g.rng.Intn(30)-1), cols // includes -1 and 0
		default:
			return engine.Limit(in, g.rng.Intn(30)-1), cols
		}
	}
}

// TestParallelRandomPlans is the randomized-plan property test of the
// morsel-parallel executor: a seeded generator emits plans over scans,
// selections, joins, unions, distinct projections, sorts and limits, and
// every plan must produce bit-identical results — columns, row order,
// tuples, provenance — on the materializing reference, the serial
// streaming executor, and the parallel executor at 2, 4 and 8 workers
// (morsel size 8, so even the 25-row relation splits into multiple
// morsels).
func TestParallelRandomPlans(t *testing.T) {
	udb := propDB(t)
	g := &planGen{rng: rand.New(rand.NewSource(11))}
	for i := 0; i < 60; i++ {
		plan, _ := g.gen(3)
		name := fmt.Sprintf("plan%02d_%s", i, engine.Shape(plan))
		if len(name) > 120 {
			name = name[:120]
		}
		t.Run(name, func(t *testing.T) {
			want, err := engine.RunReference(udb, plan)
			if err != nil {
				t.Fatalf("reference failed on generated plan: %v", err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				got, err := engine.RunWith(udb, plan, engine.WithMorselSize(engine.Exec{Workers: w}, 8))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if wh, gh := want.Header(), got.Header(); wh != gh {
					t.Fatalf("workers=%d column mismatch: %q vs %q", w, wh, gh)
				}
				if len(want.Rows) != len(got.Rows) {
					t.Fatalf("workers=%d row count mismatch: %d vs %d", w, len(want.Rows), len(got.Rows))
				}
				for r := range want.Rows {
					if wk, gk := want.Rows[r].Tuple.Key(), got.Rows[r].Tuple.Key(); wk != gk {
						t.Fatalf("workers=%d row %d tuple mismatch: %s vs %s",
							w, r, want.Rows[r].Tuple, got.Rows[r].Tuple)
					}
					if !want.Rows[r].Prov.Equal(got.Rows[r].Prov) {
						t.Fatalf("workers=%d row %d provenance mismatch: %s vs %s",
							w, r, want.Rows[r].Prov, got.Rows[r].Prov)
					}
				}
			}
		})
	}
}

// TestParallelWorkerDefaults pins the Exec.Workers contract: 0 resolves to
// one worker per CPU and still matches the serial result.
func TestParallelWorkerDefaults(t *testing.T) {
	udb := propDB(t)
	plan := engine.Join(engine.Scan("A", "a"), engine.Scan("B", "b"),
		engine.Cmp(engine.Col("a", "k"), engine.OpEq, engine.Col("b", "k")))
	want, err := engine.Run(udb, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.RunWith(udb, plan, engine.WithMorselSize(engine.Exec{}, 8)) // Workers: 0
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count mismatch: %d vs %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if want.Rows[i].Tuple.Key() != got.Rows[i].Tuple.Key() {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

// TestParallelObservability checks the parallel executor's instrumentation:
// with a metrics registry attached, a fanned-out run must report the morsels
// it claimed, the pipelines it built, and the resolved worker count, on top
// of the serial scan counters.
func TestParallelObservability(t *testing.T) {
	udb := propDB(t)
	plan := engine.Join(engine.Scan("A", "a"), engine.Scan("B", "b"),
		engine.Cmp(engine.Col("a", "k"), engine.OpEq, engine.Col("b", "k")))
	reg := obs.NewRegistry()
	o := obs.New("test", nil, reg)
	if _, err := engine.RunWith(udb, plan, engine.WithMorselSize(engine.Exec{Workers: 4, Obs: o}, 8)); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return reg.Counter(name, "test").Value() }
	// A has 300 rows: at morsel size 8 the probe-side scan splits into
	// ceil(300/8) = 38 morsels, all of which must be claimed and merged.
	if got := counter("engine_morsels_total"); got != 38 {
		t.Errorf("engine_morsels_total = %d, want 38", got)
	}
	if got := counter("engine_parallel_pipelines_total"); got != 1 {
		t.Errorf("engine_parallel_pipelines_total = %d, want 1", got)
	}
	if got := reg.Gauge("engine_workers", "test").Value(); got != 4 {
		t.Errorf("engine_workers gauge = %v, want 4", got)
	}
	if got := counter("engine_rows_scanned_total"); got == 0 {
		t.Error("engine_rows_scanned_total not incremented on the parallel path")
	}
}

// TestParallelTracing pins that tracing never changes the executor: a
// traced 2-worker run of TPC-H Q3 still fans out — it claims morsels and
// reports its exchange as one Exchange query_op span, next to a span for
// the DISTINCT merged above it — and returns exactly Run's rows.
func TestParallelTracing(t *testing.T) {
	udb := datagen.TPCH(datagen.TPCHConfig{SF: 0.01, Seed: 7})
	plan, err := sqlparse.ParseAndCompile(datagen.TPCHQueries()["Q3"], udb.Data())
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(udb, plan)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := &obs.Collector{}
	got, err := engine.RunWith(udb, plan, engine.Exec{Obs: obs.New("test", sink, reg), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("engine_morsels_total", "test").Value(); n == 0 {
		t.Error("traced 2-worker run claimed no morsels")
	}
	ops := map[string]int{}
	for _, ev := range sink.Events() {
		if ev.Stage != obs.StageQueryOperator {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "op" {
				label, _ := a.Value.(string)
				ops[strings.SplitN(label, "[", 2)[0]]++
			}
		}
	}
	if ops["Exchange"] != 1 || ops["Distinct"] != 1 {
		t.Errorf("query_op spans %v: want one Exchange and one Distinct", ops)
	}
	if len(want.Rows) == 0 || len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count: Run %d vs traced parallel %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if want.Rows[i].Tuple.Key() != got.Rows[i].Tuple.Key() || !want.Rows[i].Prov.Equal(got.Rows[i].Prov) {
			t.Fatalf("row %d: Run %s %s vs traced parallel %s %s", i,
				want.Rows[i].Tuple, want.Rows[i].Prov, got.Rows[i].Tuple, got.Rows[i].Prov)
		}
	}
}
