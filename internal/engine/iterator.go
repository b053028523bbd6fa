package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/table"
)

// iter is the Volcano-style streaming operator interface every plan node
// compiles to. The contract, which ARCHITECTURE.md documents in full:
//
//   - Open prepares the iterator for a fresh pass: it resets cursor state
//     and recursively opens children. Current operators cannot fail here
//     (all binding happens at compile time), but the error return keeps
//     the conventional Volcano signature.
//   - Next returns the next annotated row. ok=false signals exhaustion;
//     after that every further call returns ok=false. A returned Row's
//     Tuple is only guaranteed valid until the next call to Next — unless
//     the compiled subtree is marked stable, operators reuse a scratch
//     tuple, and consumers that retain rows must clone them.
//   - Close releases per-pass resources (materialized build sides, dedup
//     state) and recursively closes children.
//
// Pipeline breakers (sort, top-k, duplicate elimination, the join build
// side) drain their input inside the first Next call rather than in Open,
// so a Limit above them that never pulls (LIMIT 0) does no work. A join
// build opens, drains and closes its own input (see joinBuild), so its
// input is opened at most once and closed exactly once however the pass
// ends.
type iter interface {
	Open() error
	Next() (Row, bool, error)
	Close()
}

// execStats aggregates the cheap per-run counters the streaming executor
// always maintains (independent of tracing): the number of base-relation
// tuples read by all scans, and — on the parallel path — the number of
// morsels executed and pipeline fragments fanned out.
type execStats struct {
	scanned   int64
	morsels   int64
	pipelines int64
}

// compileCtx carries the shared state of one compilation: the source to
// bind against, the run's counters, the parallel-execution settings
// (workers < 2 compiles no exchanges; morsel is the rows-per-morsel
// grain), the instrumentation wrappers created so far when per-operator
// tracing is requested, and — while compiling one worker's copy of an
// exchange fragment — that worker's fragment state.
type compileCtx struct {
	src     source
	stats   *execStats
	workers int
	morsel  int
	trace   bool
	ops     []*opIter
	frag    *workerFrag
}

// maxPreSize caps every cardinality-hint-driven pre-allocation, in rows
// (join build rows and key offsets, sort buffers, top-k heaps). The
// hints from estimateRows are upper bounds, not estimates — a selective
// filter under a large base relation can inflate them by orders of
// magnitude — so an uncapped make() at SF 1+ could reserve gigabytes for a
// handful of rows. Buffers grow past the cap organically via append.
const maxPreSize = 1 << 20

// clampPreSize converts a cardinality hint into a safe pre-allocation
// size: unknown (-1) becomes zero, and anything above maxPreSize is
// capped.
func clampPreSize(hint int) int {
	if hint < 0 {
		return 0
	}
	if hint > maxPreSize {
		return maxPreSize
	}
	return hint
}

// compiled is the result of compiling a plan subtree: its bound output
// schema, the iterator producing its rows, and whether returned tuples are
// stable (safe to retain without cloning). Scans are stable because base
// relations are immutable; operators that build output tuples in a scratch
// buffer (project, join concatenation) are not; pipeline breakers that
// materialize their output (sort, top-k, dedup) restore stability.
type compiled struct {
	schema outSchema
	it     iter
	stable bool
}

// wrap attaches a per-operator tracing wrapper when the compilation is
// tracing; otherwise it returns c unchanged.
func (ctx *compileCtx) wrap(label string, c compiled) compiled {
	if !ctx.trace {
		return c
	}
	op := &opIter{in: c.it, label: label}
	ctx.ops = append(ctx.ops, op)
	c.it = op
	return c
}

// unwrapOp strips a tracing wrapper, exposing the underlying operator for
// compile-time fusion decisions.
func unwrapOp(it iter) iter {
	if op, ok := it.(*opIter); ok {
		return op.in
	}
	return it
}

// compile binds a plan subtree against the source and builds its iterator
// tree. It is the only compiler: serial trees and each worker's copy of an
// exchange fragment (see tryExchange) come from the same code. All schema
// resolution and predicate/scalar binding happens here, so the streaming
// path surfaces exactly the errors the materializing reference in
// reference_test.go surfaces (unknown relations and columns, ambiguous
// references, kind mismatches) before any row is produced. Children
// compile before the operator's own expressions bind, matching the
// reference's error order.
func compile(n Node, ctx *compileCtx) (compiled, error) {
	switch t := n.(type) {
	case *scanNode:
		rel, ok := ctx.src.data.Relation(t.relation)
		if !ok {
			return compiled{}, fmt.Errorf("engine: unknown relation %q", t.relation)
		}
		alias := t.alias
		if alias == "" {
			alias = t.relation
		}
		schema := make(outSchema, rel.Schema().Len())
		for i, c := range rel.Schema().Columns() {
			schema[i] = OutCol{Qualifier: alias, Name: c.Name, Kind: c.Kind}
		}
		it := &scanIter{rel: rel, prov: provFetcher(ctx.src, t.relation), stats: ctx.stats, hi: rel.Len()}
		if f := ctx.frag; f != nil && f.scan == nil {
			f.scan = it // a fragment's leftmost scan compiles first; morsels split its rows
		}
		return ctx.wrap(t.String(), compiled{schema: schema, it: it, stable: true}), nil

	case *selectNode:
		c, err := compile(t.input, ctx)
		if err != nil {
			return compiled{}, err
		}
		match, err := t.pred.bind(c.schema)
		if err != nil {
			return compiled{}, err
		}
		// Fuse filters into a scan: the predicate then runs before the
		// tuple's provenance annotation is fetched, so filtered-out base
		// tuples never cost a variable lookup. The scan's trace span
		// reports post-filter rows in that case.
		if sc, ok := unwrapOp(c.it).(*scanIter); ok {
			sc.filters = append(sc.filters, match)
			return c, nil
		}
		return ctx.wrap("Select", compiled{
			schema: c.schema,
			it:     &selIter{in: c.it, match: match},
			stable: c.stable,
		}), nil

	case *joinNode:
		lc, err := compile(t.left, ctx)
		if err != nil {
			return compiled{}, err
		}
		b, err := ctx.joinBuild(t, lc.schema)
		if err != nil {
			return compiled{}, err
		}
		schema := make(outSchema, 0, len(lc.schema)+len(b.schema))
		schema = append(schema, lc.schema...)
		schema = append(schema, b.schema...)
		_, residual := splitEquiConds(t.on, lc.schema, b.schema)
		var match func(table.Tuple) bool
		if residual != nil {
			match, err = residual.bind(schema)
			if err != nil {
				return compiled{}, err
			}
		}
		// Outside an exchange fragment the probe owns its build.
		owned := ctx.frag == nil
		scratch := make(table.Tuple, 0, len(schema))
		if len(b.conds) > 0 {
			it := &hashProbeIter{in: lc.it, build: b, owned: owned, match: match, scratch: scratch}
			return ctx.wrap("HashJoin", compiled{schema: schema, it: it, stable: false}), nil
		}
		it := &loopProbeIter{in: lc.it, build: b, owned: owned, match: match, scratch: scratch}
		return ctx.wrap("NestedLoopJoin", compiled{schema: schema, it: it, stable: false}), nil

	case *projectNode:
		if t.distinct {
			// Only the non-distinct projection fragment fans out; dedup (a
			// pipeline breaker) merges the exchange's ordered output
			// serially, preserving first-occurrence order and provenance
			// disjunction order.
			if pc, ok := tryExchange(&projectNode{input: t.input, cols: t.cols}, ctx); ok {
				it := &dedupIter{in: pc.it, clone: !pc.stable}
				return ctx.wrap("Distinct", compiled{schema: pc.schema, it: it, stable: true}), nil
			}
		}
		c, err := compile(t.input, ctx)
		if err != nil {
			return compiled{}, err
		}
		evals := make([]func(table.Tuple) table.Value, len(t.cols))
		out := make(outSchema, len(t.cols))
		for i, col := range t.cols {
			f, kind, err := col.bind(c.schema)
			if err != nil {
				return compiled{}, err
			}
			evals[i] = f
			name := col.String()
			if cr, ok := col.(colRef); ok {
				name = cr.name
			}
			out[i] = OutCol{Name: name, Kind: kind}
		}
		var it iter = &projectIter{in: c.it, evals: evals, scratch: make(table.Tuple, len(evals))}
		label := "Project"
		if t.distinct {
			// Projected tuples live in a scratch buffer, so dedup clones.
			it = &dedupIter{in: it, clone: true}
			label = "Distinct"
		}
		return ctx.wrap(label, compiled{schema: out, it: it, stable: t.distinct}), nil

	case *unionNode:
		if len(t.inputs) == 0 {
			return compiled{}, fmt.Errorf("engine: UNION of zero inputs")
		}
		var schema outSchema
		ins := make([]iter, len(t.inputs))
		clone := false
		for i, in := range t.inputs {
			c, err := compileInput(in, ctx)
			if err != nil {
				return compiled{}, err
			}
			if i == 0 {
				schema = c.schema
			} else {
				if len(c.schema) != len(schema) {
					return compiled{}, fmt.Errorf("engine: UNION arity mismatch: %d vs %d", len(schema), len(c.schema))
				}
				for j := range c.schema {
					a, b := schema[j].Kind, c.schema[j].Kind
					if a != b && a != table.KindNull && b != table.KindNull && !table.Comparable(a, b) {
						return compiled{}, fmt.Errorf("engine: UNION kind mismatch at column %d: %s vs %s", j, a, b)
					}
				}
			}
			ins[i] = c.it
			if !c.stable {
				clone = true
			}
		}
		it := &dedupIter{in: &chainIter{ins: ins}, clone: clone}
		return ctx.wrap("Union", compiled{schema: schema, it: it, stable: true}), nil

	case *sortNode:
		c, err := compileInput(t.input, ctx)
		if err != nil {
			return compiled{}, err
		}
		evals, err := bindSortKeys(t.keys, c.schema)
		if err != nil {
			return compiled{}, err
		}
		it := &sortIter{in: c.it, keys: t.keys, evals: evals, clone: !c.stable,
			sizeHint: estimateRows(t.input, ctx.src)}
		return ctx.wrap("Sort", compiled{schema: c.schema, it: it, stable: true}), nil

	case *topKNode:
		c, err := compileInput(t.input, ctx)
		if err != nil {
			return compiled{}, err
		}
		evals, err := bindSortKeys(t.keys, c.schema)
		if err != nil {
			return compiled{}, err
		}
		it := &topKIter{in: c.it, keys: t.keys, evals: evals, clone: !c.stable, k: t.n}
		return ctx.wrap(fmt.Sprintf("TopK(%d)", t.n), compiled{schema: c.schema, it: it, stable: true}), nil

	case *limitNode:
		c, err := compile(t.input, ctx)
		if err != nil {
			return compiled{}, err
		}
		it := &limitIter{in: c.it, n: t.n}
		return ctx.wrap(fmt.Sprintf("Limit(%d)", t.n), compiled{schema: c.schema, it: it, stable: c.stable}), nil

	default:
		return compiled{}, fmt.Errorf("engine: cannot compile %T", n)
	}
}

// bindSortKeys binds the key scalars of a Sort or TopK against its input
// schema.
func bindSortKeys(keys []SortKey, s outSchema) ([]func(table.Tuple) table.Value, error) {
	evals := make([]func(table.Tuple) table.Value, len(keys))
	for i, k := range keys {
		f, _, err := k.By.bind(s)
		if err != nil {
			return nil, err
		}
		evals[i] = f
	}
	return evals, nil
}

// joinBuild compiles a join's right input into its build. Outside an
// exchange fragment every join gets its own build, compiled in ctx. Inside
// one, the first worker to reach the join compiles the build serially (no
// nested exchange: it drains once, before the workers launch) and every
// later worker shares it.
func (ctx *compileCtx) joinBuild(t *joinNode, left outSchema) (*joinBuild, error) {
	bctx := ctx
	if f := ctx.frag; f != nil {
		if b := f.sh.builds[t]; b != nil {
			return b, nil
		}
		bctx = &compileCtx{src: ctx.src, stats: f.sh.stats}
	}
	rc, err := compile(t.right, bctx)
	if err != nil {
		return nil, err
	}
	conds, _ := splitEquiConds(t.on, left, rc.schema)
	b := &joinBuild{
		in: rc.it, schema: rc.schema, stable: rc.stable, conds: conds,
		sizeHint: estimateRows(t.right, ctx.src),
	}
	if f := ctx.frag; f != nil {
		f.sh.builds[t] = b
		f.sh.buildOrder = append(f.sh.buildOrder, b)
	}
	return b, nil
}

// provFetcher builds the per-tuple provenance lookup for one scanned
// relation, hoisting the work out of the row loop: an uncertain database
// resolves the relation's variable column once, and a possible world
// reuses one shared True constant instead of rebuilding it per tuple. A
// relation added after its uncertain database was built has no variables,
// so its tuples are annotated False.
func provFetcher(src source, relation string) func(i int) boolexpr.Expr {
	if src.udb == nil {
		t := boolexpr.True()
		return func(int) boolexpr.Expr { return t }
	}
	vars := src.udb.Vars(relation)
	if vars == nil {
		return func(int) boolexpr.Expr { return boolexpr.False() }
	}
	return func(i int) boolexpr.Expr { return boolexpr.Lit(vars[i]) }
}

// estimateRows bounds the output cardinality of a subtree from base
// relation sizes, used to pre-size hash-join build tables. It returns -1
// when no bound is available (joins, whose output is unbounded without
// statistics). Selections only shrink their input, so the bound stays an
// upper bound.
func estimateRows(n Node, src source) int {
	switch t := n.(type) {
	case *scanNode:
		if rel, ok := src.data.Relation(t.relation); ok {
			return rel.Len()
		}
		return -1
	case *selectNode:
		return estimateRows(t.input, src)
	case *projectNode:
		return estimateRows(t.input, src)
	case *sortNode:
		return estimateRows(t.input, src)
	case *limitNode:
		e := estimateRows(t.input, src)
		if t.n >= 0 && (e < 0 || t.n < e) {
			return t.n
		}
		return e
	case *topKNode:
		e := estimateRows(t.input, src)
		if e < 0 || t.n < e {
			return t.n
		}
		return e
	case *unionNode:
		total := 0
		for _, in := range t.inputs {
			e := estimateRows(in, src)
			if e < 0 {
				return -1
			}
			total += e
		}
		return total
	default:
		return -1
	}
}

// cloneTuple copies a scratch-backed tuple so it can be retained past the
// next Next call.
func cloneTuple(t table.Tuple) table.Tuple {
	out := make(table.Tuple, len(t))
	copy(out, t)
	return out
}

// appendDedupKey appends the tuple's canonical dedup key to buf. The
// encoding is byte-for-byte identical to table.Tuple.Key, but appending to
// a reused buffer lets dedup look keys up without allocating a string per
// row.
func appendDedupKey(buf []byte, t table.Tuple) []byte {
	for _, v := range t {
		buf = v.EncodeKey(buf)
		buf = append(buf, 0)
	}
	return buf
}

// scanIter streams the rows [lo, hi) of a base relation — all of it in a
// serial tree, one morsel at a time when it drives an exchange fragment —
// applying any filters fused in from selections directly above the scan.
// Filters run before the provenance fetch, and returned tuples alias the
// relation's immutable storage (the subtree is stable). The raw tuple
// count — before filtering — feeds the rows-scanned counter.
type scanIter struct {
	rel     *table.Relation
	prov    func(i int) boolexpr.Expr
	filters []func(table.Tuple) bool
	stats   *execStats
	lo, hi  int
	i       int
}

// Open implements iter.
func (s *scanIter) Open() error {
	s.i = s.lo
	return nil
}

// Next implements iter.
func (s *scanIter) Next() (Row, bool, error) {
scan:
	for s.i < s.hi {
		i := s.i
		s.i++
		s.stats.scanned++
		t := s.rel.At(i)
		for _, f := range s.filters {
			if !f(t) {
				continue scan
			}
		}
		return Row{Tuple: t, Prov: s.prov(i)}, true, nil
	}
	return Row{}, false, nil
}

// Close implements iter.
func (s *scanIter) Close() {}

// selIter filters its input by a bound predicate; provenance and tuple
// stability pass through unchanged.
type selIter struct {
	in    iter
	match func(table.Tuple) bool
}

// Open implements iter.
func (s *selIter) Open() error { return s.in.Open() }

// Next implements iter.
func (s *selIter) Next() (Row, bool, error) {
	for {
		r, ok, err := s.in.Next()
		if err != nil || !ok {
			return Row{}, false, err
		}
		if s.match(r.Tuple) {
			return r, true, nil
		}
	}
}

// Close implements iter.
func (s *selIter) Close() { s.in.Close() }

// projectIter evaluates the projection scalars into a reused scratch tuple
// (its output is therefore volatile) and passes provenance through.
type projectIter struct {
	in      iter
	evals   []func(table.Tuple) table.Value
	scratch table.Tuple
}

// Open implements iter.
func (p *projectIter) Open() error { return p.in.Open() }

// Next implements iter.
func (p *projectIter) Next() (Row, bool, error) {
	r, ok, err := p.in.Next()
	if err != nil || !ok {
		return Row{}, false, err
	}
	for i, f := range p.evals {
		p.scratch[i] = f(r.Tuple)
	}
	return Row{Tuple: p.scratch, Prov: r.Prov}, true, nil
}

// Close implements iter.
func (p *projectIter) Close() { p.in.Close() }

// chainIter concatenates its inputs in order (the pre-dedup stream of a
// UNION).
type chainIter struct {
	ins []iter
	i   int
}

// Open implements iter.
func (c *chainIter) Open() error {
	c.i = 0
	for _, in := range c.ins {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

// Next implements iter.
func (c *chainIter) Next() (Row, bool, error) {
	for c.i < len(c.ins) {
		r, ok, err := c.ins[c.i].Next()
		if err != nil {
			return Row{}, false, err
		}
		if ok {
			return r, true, nil
		}
		c.i++
	}
	return Row{}, false, nil
}

// Close implements iter.
func (c *chainIter) Close() {
	for _, in := range c.ins {
		in.Close()
	}
}

// dedupIter merges duplicate tuples, disjoining their provenance, and
// emits each distinct tuple at its first occurrence. Duplicate elimination
// is a pipeline breaker (a late duplicate disjoins into an earlier row's
// provenance), so the input drains on the first Next. Keys are built in a
// reused buffer and looked up without allocating; one key string is
// allocated per distinct row.
type dedupIter struct {
	in    iter
	clone bool
	rows  []Row
	done  bool
	i     int
	buf   []byte
}

// Open implements iter.
func (d *dedupIter) Open() error {
	d.rows, d.done, d.i = nil, false, 0
	return d.in.Open()
}

// Next implements iter.
func (d *dedupIter) Next() (Row, bool, error) {
	if !d.done {
		if err := d.drain(); err != nil {
			return Row{}, false, err
		}
		d.done = true
	}
	if d.i >= len(d.rows) {
		return Row{}, false, nil
	}
	r := d.rows[d.i]
	d.i++
	return r, true, nil
}

func (d *dedupIter) drain() error {
	index := make(map[string]int)
	for {
		r, ok, err := d.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		d.buf = appendDedupKey(d.buf[:0], r.Tuple)
		if j, seen := index[string(d.buf)]; seen {
			d.rows[j].Prov = d.rows[j].Prov.Or(r.Prov)
			continue
		}
		t := r.Tuple
		if d.clone {
			t = cloneTuple(t)
		}
		index[string(d.buf)] = len(d.rows)
		d.rows = append(d.rows, Row{Tuple: t, Prov: r.Prov})
	}
}

// Close implements iter.
func (d *dedupIter) Close() {
	d.rows = nil
	d.in.Close()
}

// buildPart is one partition of a hash-join build index: the key index
// and bucket lists for the build rows whose key hash falls in this
// partition. Bucket lists hold build-row indices in ascending order, so
// every probe emits its matches in build order.
type buildPart struct {
	index map[string]int32
	lists [][]int32
}

// joinBuild materializes one join's right input: its rows in input order
// (NULL-key rows of an equi-join skipped, since NULL never joins) and, for
// an equi-join, a key index split into hash partitions built concurrently.
// A serial join's probe owns its build, runs it on its first Next and
// closes it; an exchange shares one build between all its workers, runs it
// before they launch and closes it after they finish. Once run returns the
// build is immutable and safe for concurrent probes.
type joinBuild struct {
	in       iter
	schema   outSchema
	stable   bool
	conds    []equiCond // empty for theta (nested-loop) builds
	sizeHint int

	rows   []Row
	keyBuf []byte  // equi builds: every kept row's key, back to back
	offs   []int32 // row i's key is keyBuf[offs[i]:offs[i+1]]
	parts  []buildPart
	done   bool
	err    error
}

// run drains the build input and indexes it over up to workers hash
// partitions. Only the first call does the work; later calls return its
// error.
func (b *joinBuild) run(workers int) error {
	if !b.done {
		b.done = true
		b.err = b.drain(workers)
	}
	return b.err
}

func (b *joinBuild) drain(workers int) error {
	if err := b.in.Open(); err != nil {
		return err
	}
	defer b.in.Close()
	b.rows = make([]Row, 0, clampPreSize(b.sizeHint))
	if len(b.conds) > 0 {
		b.offs = make([]int32, 1, cap(b.rows)+1)
	}
	for {
		r, ok, err := b.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if len(b.conds) > 0 {
			start := len(b.keyBuf)
			nb, keyOK := appendEquiKey(b.keyBuf, r.Tuple, b.conds, false)
			if !keyOK {
				b.keyBuf = nb[:start]
				continue // NULL key never joins
			}
			if len(b.offs) == 1 {
				// First kept key: reserve key bytes for the pre-sized rows,
				// assuming the later keys are as wide, so the buffer does
				// not regrow through every size on the way.
				nb = append(make([]byte, 0, len(nb)*cap(b.rows)), nb...)
			}
			b.keyBuf = nb
			b.offs = append(b.offs, int32(len(nb)))
		}
		t := r.Tuple
		if !b.stable {
			t = cloneTuple(t)
		}
		b.rows = append(b.rows, Row{Tuple: t, Prov: r.Prov})
	}
	if len(b.conds) == 0 {
		return nil // theta build: probes walk rows directly
	}
	b.parts = make([]buildPart, max(min(workers, len(b.rows)), 1))
	if len(b.parts) == 1 {
		// One partition needs no key hashes: probes go straight to it.
		b.parts[0] = b.index(0, nil)
		return nil
	}
	hashes := make([]uint64, len(b.rows))
	for i := range hashes {
		hashes[i] = fnv64(b.key(i))
	}
	var wg sync.WaitGroup
	for p := range b.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b.parts[p] = b.index(p, hashes)
		}(p)
	}
	wg.Wait()
	return nil
}

// key returns build row i's join key.
func (b *joinBuild) key(i int) []byte { return b.keyBuf[b.offs[i]:b.offs[i+1]] }

// index builds hash partition p of b.parts: the build rows whose key hash
// falls in p (every row when hashes is nil), inserted in ascending row
// order. The map is sized from the rows drained, not from the cardinality
// hint.
func (b *joinBuild) index(p int, hashes []uint64) buildPart {
	nparts := len(b.parts)
	part := buildPart{index: make(map[string]int32, min(len(b.rows)/nparts+1, maxPreSize))}
	for i := range b.rows {
		if hashes != nil && hashes[i]%uint64(nparts) != uint64(p) {
			continue
		}
		key := b.key(i)
		if id, hit := part.index[string(key)]; hit {
			part.lists[id] = append(part.lists[id], int32(i))
		} else {
			part.index[string(key)] = int32(len(part.lists))
			part.lists = append(part.lists, []int32{int32(i)})
		}
	}
	return part
}

// bucket returns the ascending build-row indices matching key, or nil.
func (b *joinBuild) bucket(key []byte) []int32 {
	part := &b.parts[0]
	if len(b.parts) > 1 {
		part = &b.parts[fnv64(key)%uint64(len(b.parts))]
	}
	if id, hit := part.index[string(key)]; hit {
		return part.lists[id]
	}
	return nil
}

// close releases the build input if run never drained it (the tree was
// closed before the first Next, or an earlier build errored) and drops
// the materialized rows and index.
func (b *joinBuild) close() {
	if !b.done {
		b.done = true
		b.in.Close()
	}
	b.rows, b.parts, b.keyBuf, b.offs = nil, nil, nil, nil
}

// fnv64 is FNV-1a over the key bytes, used to assign build keys to
// partitions and route probes to the owning partition.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// hashProbeIter executes an equi-join: left rows stream through, probing
// the build's key index and emitting concatenations into a reused scratch
// tuple. Output order matches the materializing reference: left input
// order, then build order within a key. NULL key components never match,
// on either side. The joined row's provenance conjunction is only computed
// for rows that survive the residual predicate. An owned build runs on
// the first Next, so a Limit above that never pulls (LIMIT 0) never
// drains it.
type hashProbeIter struct {
	in    iter
	build *joinBuild
	owned bool
	match func(table.Tuple) bool

	buf    []byte
	cur    Row
	have   bool
	bucket []int32
	bi     int

	scratch table.Tuple
}

// Open implements iter.
func (j *hashProbeIter) Open() error {
	j.have, j.bucket, j.bi = false, nil, 0
	return j.in.Open()
}

// Next implements iter.
func (j *hashProbeIter) Next() (Row, bool, error) {
	if j.owned {
		if err := j.build.run(1); err != nil {
			return Row{}, false, err
		}
	}
	for {
		for j.have && j.bi < len(j.bucket) {
			r := j.build.rows[j.bucket[j.bi]]
			j.bi++
			t := append(append(j.scratch[:0], j.cur.Tuple...), r.Tuple...)
			if j.match != nil && !j.match(t) {
				continue
			}
			return Row{Tuple: t, Prov: j.cur.Prov.And(r.Prov)}, true, nil
		}
		l, ok, err := j.in.Next()
		if err != nil || !ok {
			return Row{}, false, err
		}
		key, keyOK := appendEquiKey(j.buf[:0], l.Tuple, j.build.conds, true)
		j.buf = key
		if !keyOK {
			continue
		}
		j.cur, j.have, j.bi = l, true, 0
		j.bucket = j.build.bucket(key)
	}
}

// Close implements iter.
func (j *hashProbeIter) Close() {
	if j.owned {
		j.build.close()
	}
	j.in.Close()
}

// loopProbeIter executes a theta join: every left row nested-loops against
// the build rows, in build order, concatenating into a reused scratch
// tuple. As in the hash probe, the provenance conjunction is only
// computed for rows that pass the join predicate, and an owned build runs
// on the first Next.
type loopProbeIter struct {
	in    iter
	build *joinBuild
	owned bool
	match func(table.Tuple) bool

	cur  Row
	have bool
	ri   int

	scratch table.Tuple
}

// Open implements iter.
func (j *loopProbeIter) Open() error {
	j.have, j.ri = false, 0
	return j.in.Open()
}

// Next implements iter.
func (j *loopProbeIter) Next() (Row, bool, error) {
	if j.owned {
		if err := j.build.run(1); err != nil {
			return Row{}, false, err
		}
	}
	for {
		for j.have && j.ri < len(j.build.rows) {
			r := j.build.rows[j.ri]
			j.ri++
			t := append(append(j.scratch[:0], j.cur.Tuple...), r.Tuple...)
			if j.match != nil && !j.match(t) {
				continue
			}
			return Row{Tuple: t, Prov: j.cur.Prov.And(r.Prov)}, true, nil
		}
		l, ok, err := j.in.Next()
		if err != nil || !ok {
			return Row{}, false, err
		}
		j.cur, j.have, j.ri = l, true, 0
	}
}

// Close implements iter.
func (j *loopProbeIter) Close() {
	if j.owned {
		j.build.close()
	}
	j.in.Close()
}

// sortIter is the pipeline-breaking ORDER BY operator: it drains its input
// (cloning volatile tuples) into a buffer pre-sized from the capped
// cardinality hint, stable-sorts with the shared comparator, and streams
// the sorted rows (which it owns, so the output is stable).
type sortIter struct {
	in       iter
	keys     []SortKey
	evals    []func(table.Tuple) table.Value
	clone    bool
	sizeHint int

	rows []Row
	done bool
	i    int
}

// Open implements iter.
func (s *sortIter) Open() error {
	s.rows, s.done, s.i = nil, false, 0
	return s.in.Open()
}

// Next implements iter.
func (s *sortIter) Next() (Row, bool, error) {
	if !s.done {
		if s.rows == nil {
			s.rows = make([]Row, 0, clampPreSize(s.sizeHint))
		}
		for {
			r, ok, err := s.in.Next()
			if err != nil {
				return Row{}, false, err
			}
			if !ok {
				break
			}
			if s.clone {
				r.Tuple = cloneTuple(r.Tuple)
			}
			s.rows = append(s.rows, r)
		}
		sort.SliceStable(s.rows, func(a, b int) bool {
			return compareRows(s.keys, s.evals, s.rows[a].Tuple, s.rows[b].Tuple) < 0
		})
		s.done = true
	}
	if s.i >= len(s.rows) {
		return Row{}, false, nil
	}
	r := s.rows[s.i]
	s.i++
	return r, true, nil
}

// Close implements iter.
func (s *sortIter) Close() {
	s.rows = nil
	s.in.Close()
}

// topkEntry is one heap element of topKIter: the retained row plus its
// input ordinal, which breaks key ties exactly like the stable sort the
// operator replaces.
type topkEntry struct {
	row Row
	ord int
}

// topKIter is the fused ORDER BY … LIMIT k operator: a bounded max-heap of
// the k best rows seen so far, keyed by the sort keys with input ordinal as
// tie-break. The result is bit-identical to stable-sorting the full input
// and truncating to k, but memory stays O(k) and the final sort is
// O(k log k). With k = 0 the input is never pulled.
type topKIter struct {
	in    iter
	keys  []SortKey
	evals []func(table.Tuple) table.Value
	clone bool
	k     int

	entries []topkEntry
	done    bool
	i       int
}

// Open implements iter.
func (t *topKIter) Open() error {
	t.entries, t.done, t.i = nil, false, 0
	return t.in.Open()
}

// after reports whether a sorts strictly after b: by keys, then by input
// ordinal. The heap keeps its worst (last-sorting) entry at the root.
func (t *topKIter) after(a, b topkEntry) bool {
	if c := compareRows(t.keys, t.evals, a.row.Tuple, b.row.Tuple); c != 0 {
		return c > 0
	}
	return a.ord > b.ord
}

// Next implements iter.
func (t *topKIter) Next() (Row, bool, error) {
	if !t.done {
		if t.k > 0 {
			if err := t.drain(); err != nil {
				return Row{}, false, err
			}
			sort.Slice(t.entries, func(a, b int) bool { return t.after(t.entries[b], t.entries[a]) })
		}
		t.done = true
	}
	if t.i >= len(t.entries) {
		return Row{}, false, nil
	}
	r := t.entries[t.i].row
	t.i++
	return r, true, nil
}

func (t *topKIter) drain() error {
	if t.entries == nil {
		// k comes straight from the query's LIMIT, so cap the heap's
		// pre-allocation like every other hinted buffer.
		t.entries = make([]topkEntry, 0, clampPreSize(t.k))
	}
	for ord := 0; ; ord++ {
		r, ok, err := t.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if len(t.entries) < t.k {
			if t.clone {
				r.Tuple = cloneTuple(r.Tuple)
			}
			t.entries = append(t.entries, topkEntry{row: r, ord: ord})
			t.siftUp(len(t.entries) - 1)
			continue
		}
		e := topkEntry{row: r, ord: ord}
		// Replace the current worst only if the new row sorts strictly
		// before it; on a full key tie the earlier ordinal wins, exactly
		// as a stable sort would keep the earlier row.
		if t.after(t.entries[0], e) {
			if t.clone {
				e.row.Tuple = cloneTuple(e.row.Tuple)
			}
			t.entries[0] = e
			t.siftDown(0)
		}
	}
}

func (t *topKIter) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.after(t.entries[i], t.entries[parent]) {
			return
		}
		t.entries[i], t.entries[parent] = t.entries[parent], t.entries[i]
		i = parent
	}
}

func (t *topKIter) siftDown(i int) {
	n := len(t.entries)
	for {
		largest := i
		if l := 2*i + 1; l < n && t.after(t.entries[l], t.entries[largest]) {
			largest = l
		}
		if r := 2*i + 2; r < n && t.after(t.entries[r], t.entries[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.entries[i], t.entries[largest] = t.entries[largest], t.entries[i]
		i = largest
	}
}

// Close implements iter.
func (t *topKIter) Close() {
	t.entries = nil
	t.in.Close()
}

// limitIter truncates its input to n rows (n < 0 keeps everything, as in
// the materializing reference). Once the budget is spent — immediately, for
// LIMIT 0 — it stops pulling, so upstream operators do no further work.
type limitIter struct {
	in      iter
	n       int
	emitted int
}

// Open implements iter.
func (l *limitIter) Open() error {
	l.emitted = 0
	return l.in.Open()
}

// Next implements iter.
func (l *limitIter) Next() (Row, bool, error) {
	if l.n >= 0 && l.emitted >= l.n {
		return Row{}, false, nil
	}
	r, ok, err := l.in.Next()
	if err != nil || !ok {
		return Row{}, false, err
	}
	l.emitted++
	return r, true, nil
}

// Close implements iter.
func (l *limitIter) Close() { l.in.Close() }

// opIter is the per-operator tracing wrapper compiled in when a span sink
// is attached: it counts the rows an operator emits and accumulates the
// inclusive time (operator plus its subtree) spent inside Next. The
// executor turns each wrapper into one query_op span after the run.
type opIter struct {
	in    iter
	label string
	rows  int64
	dur   time.Duration
}

// Open implements iter.
func (o *opIter) Open() error { return o.in.Open() }

// Next implements iter.
func (o *opIter) Next() (Row, bool, error) {
	start := time.Now()
	r, ok, err := o.in.Next()
	o.dur += time.Since(start)
	if ok {
		o.rows++
	}
	return r, ok, err
}

// Close implements iter.
func (o *opIter) Close() { o.in.Close() }

// compareRows orders two tuples by bound sort keys: -1 when a sorts before
// b, +1 after, 0 on a full tie. The semantics are shared by the
// reference's sort, the streaming sort and top-k: NULLs first ascending,
// incomparable or equal keys fall through to the next key, Desc reverses.
func compareRows(keys []SortKey, evals []func(table.Tuple) table.Value, a, b table.Tuple) int {
	for i, k := range keys {
		va, vb := evals[i](a), evals[i](b)
		c, err := table.Compare(va, vb)
		if err != nil || c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// appendEquiKey appends the hash-join key of a tuple under the given
// equi-conditions to buf, returning ok=false when any component is NULL
// (NULL never joins). Sharing the buffer across rows keeps probe-side key
// construction allocation-free.
func appendEquiKey(buf []byte, t table.Tuple, conds []equiCond, left bool) ([]byte, bool) {
	for _, c := range conds {
		idx := c.rightIdx
		if left {
			idx = c.leftIdx
		}
		v := t[idx]
		if v.IsNull() {
			return buf, false
		}
		buf = v.EncodeKey(buf)
		buf = append(buf, 0)
	}
	return buf, true
}
