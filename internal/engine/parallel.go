package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements morsel-driven parallel execution of pipeline
// fragments. A fragment is the probe-side spine of a plan subtree —
// scan → fused selections → projection → probe side of joins — whose only
// base-relation driver is its leftmost scan. The driver relation is split
// into fixed-size morsels (contiguous row ranges); a pool of workers claims
// morsels from a shared counter, runs its own private copy of the fragment
// over each claimed range, and an ordered-merge exchange emits the morsel
// outputs strictly in morsel order.
//
// Determinism argument. Each worker's copy of the fragment comes from the
// same compile that builds serial trees, so it is the serial operator
// chain, emitting rows in scan order. Morsels partition the scanned
// relation into contiguous ranges, and the exchange concatenates morsel
// buffers in morsel index order — so the merged stream is the serial stream, row for
// row. Join builds are the same joinBuild a serial join owns, drained
// once, before the workers launch, in the same input order; bucket lists
// store build-row indices in ascending order, so every probe emits matches
// in build order and every provenance conjunction is constructed from
// identical operands in an identical order. Results — columns, tuple
// order, and provenance expressions — are therefore bit-identical to the
// serial executor for any worker count and any morsel size.
//
// Pipeline breakers (sort, top-k, duplicate elimination, union merge) and
// Limit run serially above the exchange; only the per-row fragment below
// them fans out.

// defaultMorselSize is the number of rows of a fragment's leftmost scan
// per morsel, unless a test shrinks it. Fragments over relations that do not fill at
// least two morsels run serially — the pool overhead would dominate.
const defaultMorselSize = 1024

// compileInput compiles a plan subtree that feeds a pipeline breaker (or
// the executor's root drain), fanning its pipeline fragment out across the
// worker pool when the compilation is parallel and the subtree qualifies.
// Any fragment that does not qualify — or whose compilation fails — is
// compiled as a serial tree instead, which also surfaces binding errors
// exactly as the serial path would.
func compileInput(n Node, ctx *compileCtx) (compiled, error) {
	if c, ok := tryExchange(n, ctx); ok {
		return c, nil
	}
	return compile(n, ctx)
}

// leftmostScan returns the leftmost scan of n — the relation whose rows
// are partitioned into morsels — when n is a parallelizable pipeline
// fragment: a spine of scans, selections, non-distinct projections and
// join probe sides. Joins only need their left (probe) input on the spine;
// the right input becomes a shared build and may be any plan.
func leftmostScan(n Node) (*scanNode, bool) {
	switch t := n.(type) {
	case *scanNode:
		return t, true
	case *selectNode:
		return leftmostScan(t.input)
	case *projectNode:
		if t.distinct {
			return nil, false
		}
		return leftmostScan(t.input)
	case *joinNode:
		return leftmostScan(t.left)
	}
	return nil, false
}

// tryExchange attempts to compile n as a parallel pipeline fragment behind
// an ordered-merge exchange, calling compile once per worker with a worker
// context: the workers share the fragment's join builds, and each records
// its leftmost scan, whose row range it re-points per morsel. It declines
// (ok=false) when the compilation is serial, when n is not a fragment,
// when the scanned relation does not fill at least two morsels, or when
// any binding step fails — the caller then compiles a serial tree. Worker
// fragments are never traced (goroutines must not share an opIter); a
// traced run reports the exchange as one Exchange[n] span instead.
func tryExchange(n Node, ctx *compileCtx) (compiled, bool) {
	if ctx.workers < 2 {
		return compiled{}, false
	}
	scan, ok := leftmostScan(n)
	if !ok {
		return compiled{}, false
	}
	rel, ok := ctx.src.data.Relation(scan.relation)
	if !ok {
		return compiled{}, false
	}
	morsel := ctx.morsel
	if morsel <= 0 {
		morsel = defaultMorselSize
	}
	if rel.Len() <= morsel {
		return compiled{}, false
	}
	nMorsels := (rel.Len() + morsel - 1) / morsel
	sh := &exchShared{
		stats:    ctx.stats,
		morsel:   morsel,
		nMorsels: nMorsels,
		workers:  min(ctx.workers, nMorsels),
		builds:   make(map[*joinNode]*joinBuild),
	}
	var c compiled
	for w := 0; w < sh.workers; w++ {
		f := &workerFrag{sh: sh}
		var err error
		c, err = compile(n, &compileCtx{src: ctx.src, stats: &f.stats, frag: f})
		if err != nil {
			return compiled{}, false
		}
		f.root, f.stable = c.it, c.stable
		sh.frags = append(sh.frags, f)
	}
	ctx.stats.pipelines++
	it := &exchangeIter{sh: sh}
	return ctx.wrap(fmt.Sprintf("Exchange[%d]", sh.workers), compiled{schema: c.schema, it: it, stable: true}), true
}

// workerFrag is one worker's private fragment instance: the exchange it
// belongs to, the iterator tree, its leftmost scan (whose range is
// re-pointed per morsel), whether the tree's output tuples are stable
// (scratch-backed rows are cloned into the morsel buffer otherwise), and
// the worker's own counters, summed into the run's after the pool joins.
type workerFrag struct {
	sh     *exchShared
	root   iter
	scan   *scanIter
	stable bool
	stats  execStats
}

// exchShared is the state one exchange shares between its workers and the
// merge side: the morsel geometry, the per-worker fragments, the shared
// join builds, and the per-morsel output buffers and completion signals.
type exchShared struct {
	stats    *execStats
	morsel   int
	nMorsels int
	workers  int

	frags      []*workerFrag
	builds     map[*joinNode]*joinBuild
	buildOrder []*joinBuild

	next   atomic.Int64 // next morsel to claim
	cancel atomic.Bool  // stop claiming new morsels

	out   [][]Row
	errs  []error
	ready []chan struct{}
	wg    sync.WaitGroup

	started   bool
	closeOnce sync.Once
}

// start drains the shared builds (serially, in compile order) and launches
// the worker pool. It runs in the consumer's goroutine on the first Next,
// following the pipeline-breaker convention.
func (sh *exchShared) start() error {
	for _, b := range sh.buildOrder {
		if err := b.run(sh.workers); err != nil {
			return err
		}
	}
	sh.out = make([][]Row, sh.nMorsels)
	sh.errs = make([]error, sh.nMorsels)
	sh.ready = make([]chan struct{}, sh.nMorsels)
	for i := range sh.ready {
		sh.ready[i] = make(chan struct{})
	}
	for _, f := range sh.frags {
		sh.wg.Add(1)
		go sh.work(f)
	}
	return nil
}

// work is one worker's loop: claim the next morsel index, run the private
// fragment over its row range, publish the buffer, repeat. Workers claim
// indices in ascending order, so when a morsel errors every lower-numbered
// morsel is already claimed and will complete — the merge side never waits
// on an unclaimed morsel.
func (sh *exchShared) work(f *workerFrag) {
	defer sh.wg.Done()
	for {
		if sh.cancel.Load() {
			return
		}
		m := int(sh.next.Add(1)) - 1
		if m >= sh.nMorsels {
			return
		}
		rows, err := sh.runMorsel(f, m)
		sh.out[m], sh.errs[m] = rows, err
		close(sh.ready[m])
		if err != nil {
			sh.cancel.Store(true)
			return
		}
	}
}

// runMorsel executes one morsel: point the driver scan at the range,
// re-open the fragment, drain it, cloning scratch-backed tuples so the
// buffer owns its memory.
func (sh *exchShared) runMorsel(f *workerFrag, m int) ([]Row, error) {
	f.scan.lo = m * sh.morsel
	f.scan.hi = min(f.scan.lo+sh.morsel, f.scan.rel.Len())
	if err := f.root.Open(); err != nil {
		return nil, err
	}
	var rows []Row
	for {
		r, ok, err := f.root.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		if !f.stable {
			r.Tuple = cloneTuple(r.Tuple)
		}
		rows = append(rows, r)
	}
}

// exchangeIter is the ordered-merge gather side of one parallel pipeline:
// it emits morsel buffers strictly in morsel index order, waiting for each
// buffer to be published. Its output is stable (buffers own their rows)
// and bit-identical to draining the serial fragment. The exchange is
// single-pass: builds drain and workers launch on the first Next, and
// Close cancels outstanding morsels, joins the pool, and flushes the
// scan/morsel counters into the run's stats.
type exchangeIter struct {
	sh  *exchShared
	m   int
	cur []Row
	i   int
	err error
}

// Open implements iter. The fragment iterators are opened per morsel by
// the workers; there is nothing to prepare eagerly.
func (e *exchangeIter) Open() error { return nil }

// Next implements iter.
func (e *exchangeIter) Next() (Row, bool, error) {
	if e.err != nil {
		return Row{}, false, e.err
	}
	sh := e.sh
	if !sh.started {
		sh.started = true
		if err := sh.start(); err != nil {
			e.err = err
			return Row{}, false, err
		}
	}
	for {
		if e.i < len(e.cur) {
			r := e.cur[e.i]
			e.i++
			return r, true, nil
		}
		if e.m >= sh.nMorsels {
			return Row{}, false, nil
		}
		m := e.m
		e.m++
		<-sh.ready[m]
		if err := sh.errs[m]; err != nil {
			e.err = err
			return Row{}, false, err
		}
		e.cur, e.i = sh.out[m], 0
		sh.out[m] = nil
	}
}

// Close implements iter.
func (e *exchangeIter) Close() {
	sh := e.sh
	sh.closeOnce.Do(func() {
		sh.cancel.Store(true)
		sh.wg.Wait()
		for _, f := range sh.frags {
			sh.stats.scanned += f.stats.scanned
		}
		claimed := sh.next.Load()
		if claimed > int64(sh.nMorsels) {
			claimed = int64(sh.nMorsels)
		}
		sh.stats.morsels += claimed
		for _, b := range sh.buildOrder {
			b.close()
		}
	})
}
