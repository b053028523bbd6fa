package engine_test

import (
	"sort"
	"testing"

	"qres/internal/datagen"
	"qres/internal/engine"
	"qres/internal/sqlparse"
)

// fuzzRowBudget caps the rows the reference may materialize at any
// operator of a fuzzed plan; larger plans (mostly cross joins a mutation
// made by breaking a join condition) are skipped.
const fuzzRowBudget = 10_000

// FuzzQuery feeds arbitrary text through the create route's SQL path:
// parse and compile against a small TPC-H database and, when that
// succeeds, evaluate three times on one build cache (cold, seen, hit) at
// workers 1 and 4. Every outcome must equal the reference executor's.
// Seeds are the TPC-H and NELL workload queries and a pair of IN lists
// that print alike. CI runs it for 10 s:
//
//	go test -run '^$' -fuzz '^FuzzQuery$' -fuzztime 10s ./internal/engine
func FuzzQuery(f *testing.F) {
	udb := datagen.TPCH(datagen.TPCHConfig{SF: 0.0003, Seed: 7})
	for _, catalog := range []map[string]string{datagen.TPCHQueries(), datagen.NELLQueries()} {
		names := make([]string, 0, len(catalog))
		for name := range catalog {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f.Add(catalog[name])
		}
	}
	f.Add(`SELECT DISTINCT c.c_name FROM customer AS c, nation AS n
		WHERE c.c_nationkey = n.n_nationkey AND n.n_name IN ('FRANCE, GERMANY')`)
	f.Add(`SELECT DISTINCT c.c_name FROM customer AS c, nation AS n
		WHERE c.c_nationkey = n.n_nationkey AND n.n_name IN ('FRANCE', 'GERMANY')`)
	f.Fuzz(func(t *testing.T, sql string) {
		plan, err := sqlparse.ParseAndCompile(sql, udb.Data())
		if err != nil {
			return
		}
		if engine.RowBound(udb, plan, fuzzRowBudget) < 0 {
			t.Skip("plan exceeds the fuzz row budget")
		}
		want, werr := engine.RunReference(udb, plan)
		for _, w := range []int{1, 4} {
			x := engine.WithMorselSize(engine.Exec{Workers: w, Builds: engine.NewBuildCache(udb)}, testMorselSize)
			for _, phase := range []string{"cold", "seen", "hit"} {
				got, gerr := engine.RunWith(udb, plan, x)
				assertMatchesReference(t, want, werr, got, gerr, phase)
			}
		}
	})
}
