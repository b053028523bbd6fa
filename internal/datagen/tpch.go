package datagen

import (
	"fmt"
	"math/rand"

	"qres/internal/table"
	"qres/internal/uncertain"
)

// TPCHConfig sizes the TPC-H-like database. Cardinalities follow the
// TPC-H ratios scaled by SF: at SF 1 the original benchmark has 10k
// suppliers, 150k customers, 200k parts, 1.5M orders and ~6M lineitems;
// the experiments here run at small fractions of that (the provenance
// shape, not the raw row count, is what drives resolution behaviour).
type TPCHConfig struct {
	// SF is the scale factor (default 0.002).
	SF float64
	// Seed drives all generation.
	Seed int64
	// Lean skips per-tuple metadata (the maps and formatted strings the
	// Learner trains on), which dominates generation memory at SF ≥ 1.
	// Engine benchmarks, which never touch metadata, set it to generate
	// large scale factors cheaply. The random-number stream is consumed
	// identically in both modes, so for a given SF and Seed the tuple data
	// is byte-for-byte the same with and without Lean.
	Lean bool
}

func (c TPCHConfig) withDefaults() TPCHConfig {
	if c.SF <= 0 {
		c.SF = 0.002
	}
	return c
}

func scaled(base int, sf float64, min int) int {
	n := int(float64(base) * sf)
	if n < min {
		n = min
	}
	return n
}

var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	nationRegion = []int{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	partTypes1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	partTypes2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	partTypes3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	partColors = []string{"green", "blue", "red", "ivory", "khaki", "salmon", "peach", "navy", "almond", "puff"}
	containers = []string{"SM CASE", "SM BOX", "LG CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PKG"}
)

// TPCH generates the database at cfg.SF and returns it as an uncertain
// database. Each tuple carries metadata: source (an ingestion batch,
// standing in for data lineage), rel-specific content attributes, and the
// entity key — the attribute families the Learner trains on.
func TPCH(cfg TPCHConfig) *uncertain.DB {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	nSupplier := scaled(10_000, cfg.SF, 8)
	nCustomer := scaled(150_000, cfg.SF, 20)
	nPart := scaled(200_000, cfg.SF, 25)
	nOrders := scaled(1_500_000, cfg.SF, 60)
	batches := 12
	// batch always consumes one rng draw so Lean mode leaves the random
	// stream — and therefore every generated tuple — unchanged.
	batch := func() string {
		b := rng.Intn(batches)
		if cfg.Lean {
			return ""
		}
		return fmt.Sprintf("batch-%02d", b)
	}
	// meta materializes a tuple's metadata unless Lean generation is on.
	// Callers must draw batch() outside the closure argument so the rng
	// stream does not depend on the mode.
	meta := func(m func() table.Metadata) table.Metadata {
		if cfg.Lean {
			return nil
		}
		return m()
	}

	db := table.NewDatabase()
	col := func(name string, k table.Kind) table.Column { return table.Column{Name: name, Kind: k} }

	region := table.NewRelation("region", table.NewSchema(
		col("r_regionkey", table.KindInt), col("r_name", table.KindString)))
	for i, name := range regionNames {
		region.MustAppend(table.Tuple{table.Int(int64(i)), table.String_(name)},
			table.Metadata{"source": "reference", "entity": name})
	}
	db.MustAdd(region)

	nation := table.NewRelation("nation", table.NewSchema(
		col("n_nationkey", table.KindInt), col("n_name", table.KindString),
		col("n_regionkey", table.KindInt)))
	for i, name := range nationNames {
		nation.MustAppend(
			table.Tuple{table.Int(int64(i)), table.String_(name), table.Int(int64(nationRegion[i]))},
			table.Metadata{"source": "reference", "entity": name, "value": regionNames[nationRegion[i]]})
	}
	db.MustAdd(nation)

	supplier := table.NewRelation("supplier", table.NewSchema(
		col("s_suppkey", table.KindInt), col("s_name", table.KindString),
		col("s_nationkey", table.KindInt), col("s_acctbal", table.KindFloat)))
	supplier.Reserve(nSupplier)
	for i := 0; i < nSupplier; i++ {
		nk := rng.Intn(len(nationNames))
		// The tuple is built before batch() so the rng draw order matches
		// the original inline-literal evaluation order exactly.
		t := table.Tuple{
			table.Int(int64(i)),
			table.String_(fmt.Sprintf("Supplier#%06d", i)),
			table.Int(int64(nk)),
			table.Float(float64(rng.Intn(1_000_000)) / 100),
		}
		src := batch()
		supplier.MustAppend(t, meta(func() table.Metadata {
			return table.Metadata{"source": src, "entity": fmt.Sprintf("supplier-%d", i), "value": nationNames[nk]}
		}))
	}
	db.MustAdd(supplier)

	customer := table.NewRelation("customer", table.NewSchema(
		col("c_custkey", table.KindInt), col("c_name", table.KindString),
		col("c_nationkey", table.KindInt), col("c_mktsegment", table.KindString),
		col("c_acctbal", table.KindFloat)))
	customer.Reserve(nCustomer)
	for i := 0; i < nCustomer; i++ {
		nk := rng.Intn(len(nationNames))
		seg := segments[rng.Intn(len(segments))]
		t := table.Tuple{
			table.Int(int64(i)),
			table.String_(fmt.Sprintf("Customer#%06d", i)),
			table.Int(int64(nk)),
			table.String_(seg),
			table.Float(float64(rng.Intn(1_000_000)) / 100),
		}
		src := batch()
		customer.MustAppend(t, meta(func() table.Metadata {
			return table.Metadata{"source": src, "entity": fmt.Sprintf("customer-%d", i), "value": seg}
		}))
	}
	db.MustAdd(customer)

	part := table.NewRelation("part", table.NewSchema(
		col("p_partkey", table.KindInt), col("p_name", table.KindString),
		col("p_type", table.KindString), col("p_size", table.KindInt),
		col("p_brand", table.KindString), col("p_container", table.KindString)))
	part.Reserve(nPart)
	for i := 0; i < nPart; i++ {
		ptype := fmt.Sprintf("%s %s %s",
			partTypes1[rng.Intn(len(partTypes1))],
			partTypes2[rng.Intn(len(partTypes2))],
			partTypes3[rng.Intn(len(partTypes3))])
		pname := fmt.Sprintf("%s %s part-%d",
			partColors[rng.Intn(len(partColors))],
			partColors[rng.Intn(len(partColors))], i)
		t := table.Tuple{
			table.Int(int64(i)),
			table.String_(pname),
			table.String_(ptype),
			table.Int(int64(1 + rng.Intn(50))),
			table.String_(fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))),
			table.String_(containers[rng.Intn(len(containers))]),
		}
		src := batch()
		part.MustAppend(t, meta(func() table.Metadata {
			return table.Metadata{"source": src, "entity": fmt.Sprintf("part-%d", i), "value": ptype}
		}))
	}
	db.MustAdd(part)

	partsupp := table.NewRelation("partsupp", table.NewSchema(
		col("ps_partkey", table.KindInt), col("ps_suppkey", table.KindInt),
		col("ps_supplycost", table.KindFloat), col("ps_availqty", table.KindInt)))
	partsupp.Reserve(2 * nPart)
	for i := 0; i < nPart; i++ {
		// TPC-H pairs each part with 4 suppliers; 2 keeps small scales joinable.
		for j := 0; j < 2; j++ {
			sk := (i*7 + j*13) % nSupplier
			t := table.Tuple{
				table.Int(int64(i)), table.Int(int64(sk)),
				table.Float(float64(rng.Intn(100_000)) / 100),
				table.Int(int64(rng.Intn(10_000))),
			}
			src := batch()
			partsupp.MustAppend(t, meta(func() table.Metadata {
				return table.Metadata{"source": src, "entity": fmt.Sprintf("part-%d", i)}
			}))
		}
	}
	db.MustAdd(partsupp)

	orders := table.NewRelation("orders", table.NewSchema(
		col("o_orderkey", table.KindInt), col("o_custkey", table.KindInt),
		col("o_orderstatus", table.KindString), col("o_totalprice", table.KindFloat),
		col("o_orderdate", table.KindDate), col("o_orderpriority", table.KindString),
		col("o_shippriority", table.KindInt)))
	lineitem := table.NewRelation("lineitem", table.NewSchema(
		col("l_orderkey", table.KindInt), col("l_partkey", table.KindInt),
		col("l_suppkey", table.KindInt), col("l_linenumber", table.KindInt),
		col("l_quantity", table.KindFloat), col("l_extendedprice", table.KindFloat),
		col("l_discount", table.KindFloat), col("l_tax", table.KindFloat),
		col("l_returnflag", table.KindString), col("l_linestatus", table.KindString),
		col("l_shipdate", table.KindDate), col("l_commitdate", table.KindDate),
		col("l_receiptdate", table.KindDate), col("l_shipmode", table.KindString)))

	randDate := func(startYear, spanDays int) table.Value {
		base := rng.Intn(spanDays)
		y := startYear + base/365
		rem := base % 365
		m := 1 + rem/31
		d := 1 + rem%28
		return table.Date(y, m, d)
	}
	orders.Reserve(nOrders)
	lineitem.Reserve(nOrders * 5 / 2) // lines per order average 2.5
	for i := 0; i < nOrders; i++ {
		ck := rng.Intn(nCustomer)
		odate := randDate(1992, 7*365)
		status := "O"
		if rng.Float64() < 0.49 {
			status = "F"
		}
		ot := table.Tuple{
			table.Int(int64(i)), table.Int(int64(ck)),
			table.String_(status),
			table.Float(float64(rng.Intn(40_000_000)) / 100),
			odate,
			table.String_(priorities[rng.Intn(len(priorities))]),
			table.Int(int64(rng.Intn(2))),
		}
		osrc := batch()
		orders.MustAppend(ot, meta(func() table.Metadata {
			return table.Metadata{"source": osrc, "entity": fmt.Sprintf("order-%d", i)}
		}))

		lines := 1 + rng.Intn(4)
		for ln := 0; ln < lines; ln++ {
			pk := rng.Intn(nPart)
			sk := (pk*7 + (ln%2)*13) % nSupplier // consistent with partsupp pairing
			ship := odate.AsInt() + int64(1+rng.Intn(90))
			commit := odate.AsInt() + int64(10+rng.Intn(60))
			receipt := ship + int64(1+rng.Intn(30))
			rf := "N"
			if rng.Float64() < 0.25 {
				rf = "R"
			} else if rng.Float64() < 0.3 {
				rf = "A"
			}
			ls := "O"
			if rng.Float64() < 0.5 {
				ls = "F"
			}
			lt := table.Tuple{
				table.Int(int64(i)), table.Int(int64(pk)), table.Int(int64(sk)),
				table.Int(int64(ln + 1)),
				table.Float(float64(1 + rng.Intn(50))),
				table.Float(float64(rng.Intn(10_000_000)) / 100),
				table.Float(float64(rng.Intn(11)) / 100),
				table.Float(float64(rng.Intn(9)) / 100),
				table.String_(rf), table.String_(ls),
				table.DateFromOrdinal(normalizeDate(ship)),
				table.DateFromOrdinal(normalizeDate(commit)),
				table.DateFromOrdinal(normalizeDate(receipt)),
				table.String_(shipmodes[rng.Intn(len(shipmodes))]),
			}
			lsrc := batch()
			lineitem.MustAppend(lt, meta(func() table.Metadata {
				return table.Metadata{"source": lsrc, "entity": fmt.Sprintf("order-%d", i), "value": rf}
			}))
		}
	}
	db.MustAdd(orders)
	db.MustAdd(lineitem)

	return uncertain.New(db)
}

// normalizeDate repairs yyyymmdd arithmetic that overflowed the day or
// month field (day-level arithmetic on the encoding is approximate; the
// workloads only require a consistent total order, which this preserves).
func normalizeDate(d int64) int64 {
	y, m, day := d/10000, (d/100)%100, d%100
	for day > 28 {
		day -= 28
		m++
	}
	for m > 12 {
		m -= 12
		y++
	}
	return y*10000 + m*100 + day
}
