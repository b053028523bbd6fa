package testdb

import (
	"fmt"
	"sort"
	"strings"

	"qres/internal/datagen"
	"qres/internal/uncertain"
)

// Q10Months returns the one-month instances of the TPC-H-like Q10 over a
// generated TPC-H database, in calendar order: the template with its
// one-quarter o_orderdate range narrowed to each month that has orders.
// They share every join build except the orders one, which is what a
// service's build cache sees when many users ask Q10 for different months.
func Q10Months(udb *uncertain.DB) []string {
	rel, _ := udb.Data().Relation("orders")
	col, _ := rel.Schema().Index("o_orderdate")
	seen := map[int64]bool{}
	for i := 0; i < rel.Len(); i++ {
		seen[rel.At(i)[col].AsInt()/100] = true // yyyymm
	}
	months := make([]int64, 0, len(seen))
	for m := range seen {
		months = append(months, m)
	}
	sort.Slice(months, func(a, b int) bool { return months[a] < months[b] })
	tmpl := datagen.TPCHQueries()["Q10"]
	out := make([]string, len(months))
	for i, m := range months {
		y, mo := m/100, m%100
		ny, nmo := y, mo+1
		if nmo > 12 {
			ny, nmo = y+1, 1
		}
		out[i] = strings.NewReplacer(
			"1993.10.01", fmt.Sprintf("%04d.%02d.01", y, mo),
			"1994.01.01", fmt.Sprintf("%04d.%02d.01", ny, nmo),
		).Replace(tmpl)
	}
	return out
}
