// Package store is the probes repository's storage engine: a segmented,
// CRC-framed write-ahead log with group-committed fsyncs, background
// compaction into an atomic snapshot, and a block-index sidecar per sealed
// segment for sublinear recovery and cold lookups.
//
// It superseded a flat JSONL store — one log file, an fsync inside every
// append, the whole log replayed on every restart — which now survives
// only as the pinned control of this package's tests and benchmarks;
// directories that store wrote are migrated in place on first Open. The
// design changes the two costs that grow with recorded probes:
//
//   - Restart time. Background compaction folds sealed segments into the
//     snapshot and deletes them, and the sidecar indexes let recovery skip
//     any remaining segment whose records the snapshot already covers
//     without reading it — so replay work tracks the un-snapshotted tail,
//     not total history. Records are framed in a compact binary encoding
//     that also decodes several times faster than JSONL.
//
//   - Answer-path latency. Appends from concurrent sessions coalesce into
//     one fsync via a commit queue drained by a single flusher goroutine
//     (group commit); each append still returns only after the batch
//     holding its records is durable, so no acknowledged answer is ever
//     lost, but the fsync cost is shared across every session that
//     answered in the same window.
//
// Correctness rests on one alignment invariant: every repository add is
// paired with a WAL append inside a single Update call, so the i-th WAL
// record is the i-th repository record. A snapshot then captures the
// repository prefix and the WAL watermark (records enqueued so far) in one
// critical section, and recovery is exact by construction: load the
// snapshot, then replay only WAL records at or beyond the watermark.
// Repository mutations outside Update (e.g. seeding before serving) are
// durable from the next Snapshot on.
package store

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/resolve"
)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("store: closed")

// Store is a durable probes store. It is safe for concurrent use: any
// number of goroutines may call Update/Append while the background
// compactor (and explicit Snapshot calls) run.
type Store struct {
	dir       string
	segBytes  int64
	nameFn    func(boolexpr.Var) string
	resolveFn func(string) (boolexpr.Var, bool)
	met       *storeMetrics
	repo      *resolve.Repository

	// mu is the commit-order lock: {repository add + enqueue} under one
	// acquisition keeps WAL order identical to repository order, which is
	// what makes snapshot watermarks exact. The fsync happens outside it.
	mu     sync.Mutex
	flushC *sync.Cond
	queue  []*pendingBatch
	total  uint64 // global index of the next record to enqueue
	closed bool
	sticky error // first write fault; fails all subsequent appends

	// smu guards the segment inventory: sealed-segment metadata, the live
	// segment's counters, and the snapshot manifest.
	smu    sync.Mutex
	sealed []*segmentMeta
	active *activeSegment
	man    manifest

	// snapMu serializes Snapshot (explicit calls and the compactor).
	snapMu sync.Mutex

	flusherDone chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	compactOnce sync.Once

	fsyncs      atomic.Int64
	batches     atomic.Int64
	compactions atomic.Int64
	compactErrs atomic.Int64
}

// pendingBatch is one Append's encoded records waiting in the commit
// queue. done receives the batch's sync verdict exactly once.
type pendingBatch struct {
	buf  []byte
	recs int
	done chan error
}

// activeSegment is the live WAL segment the flusher appends to.
type activeSegment struct {
	f          *os.File
	path       string
	seq        uint64
	firstIndex uint64
	records    uint64
	bytes      int64
}

// Append durably logs newly answered probes, returning once every record
// is synced (possibly sharing its fsync with concurrent appends). Callers
// that may Snapshot concurrently must pair the repository add with the
// append inside one Update instead.
func (s *Store) Append(recs ...resolve.ProbeRecord) error {
	return s.Update(func(ap func(...resolve.ProbeRecord) error) error {
		return ap(recs...)
	})
}

// Update runs fn while holding the commit-order lock; fn receives an
// append function whose records enter the WAL in exactly the order the
// paired repository adds become visible. The enqueue returns immediately;
// Update itself returns only after every batch fn appended is fsynced, so
// the caller's durability point is unchanged while the fsync is shared
// with concurrent sessions (group commit).
func (s *Store) Update(fn func(appendFn func(...resolve.ProbeRecord) error) error) error {
	var waits []chan error
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.sticky != nil {
		err := s.sticky
		s.mu.Unlock()
		return err
	}
	err := fn(func(recs ...resolve.ProbeRecord) error {
		if len(recs) == 0 {
			return nil
		}
		b := s.encodeBatch(recs)
		s.queue = append(s.queue, b)
		s.total += uint64(len(recs))
		waits = append(waits, b.done)
		s.flushC.Signal()
		return nil
	})
	s.mu.Unlock()
	for _, ch := range waits {
		if werr := <-ch; werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// encodeBatch frames the records for the commit queue. Runs under mu; the
// binary encoding is cheap enough that holding the lock here is far below
// the fsync it replaces.
func (s *Store) encodeBatch(recs []resolve.ProbeRecord) *pendingBatch {
	b := &pendingBatch{recs: len(recs), done: make(chan error, 1)}
	scratch := make([]byte, 0, 256)
	for _, pr := range recs {
		rec := recordFromProbe(pr, s.nameFn)
		scratch = appendRecordPayload(scratch[:0], rec)
		b.buf = appendFrame(b.buf, scratch)
	}
	return b
}

// flushLoop is the single flusher goroutine: it drains the commit queue,
// writes every pending batch to the live segment in one write, fsyncs
// once, and wakes the waiters. Segment rotation happens here too, between
// batches, so records never split across segments.
func (s *Store) flushLoop() {
	defer close(s.flusherDone)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.flushC.Wait()
		}
		batches := s.queue
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()
		if len(batches) > 0 {
			s.flushBatches(batches)
			continue // re-check the queue before honoring close
		}
		if closed {
			return
		}
	}
}

// flushBatches commits one drained queue: concatenated write, single
// fsync, waiter wakeup, then rotation if the live segment is full.
func (s *Store) flushBatches(batches []*pendingBatch) {
	s.mu.Lock()
	err := s.sticky
	s.mu.Unlock()
	recs := 0
	if err == nil {
		var buf []byte
		for _, b := range batches {
			buf = append(buf, b.buf...)
			recs += b.recs
		}
		if _, werr := s.active.f.Write(buf); werr != nil {
			err = werr
		} else {
			start := time.Now()
			err = s.active.f.Sync()
			d := time.Since(start)
			s.met.observeFsync(d.Seconds())
			s.fsyncs.Add(1)
		}
		if err == nil {
			s.batches.Add(1)
			s.met.observeBatch(float64(recs))
			s.smu.Lock()
			s.active.bytes += int64(len(buf))
			s.active.records += uint64(recs)
			full := s.active.bytes >= s.segBytes
			s.smu.Unlock()
			if full {
				err = s.rotate()
			}
		}
	}
	if err != nil {
		// A failed or partial write leaves the segment state unknown;
		// refuse further appends rather than risk interleaving garbage.
		s.mu.Lock()
		if s.sticky == nil {
			s.sticky = err
		}
		s.mu.Unlock()
	}
	for _, b := range batches {
		b.done <- err
	}
	s.publishGauges()
}

// rotate seals the live segment — final sync, sidecar block index, close —
// and opens the next one. Called from the flusher (between batches) and
// from recovery.
func (s *Store) rotate() error {
	s.smu.Lock()
	old := s.active
	meta := &segmentMeta{
		Seq:        old.seq,
		FirstIndex: old.firstIndex,
		Records:    old.records,
		Bytes:      old.bytes,
	}
	s.smu.Unlock()
	if err := old.f.Sync(); err != nil {
		return err
	}
	if err := writeSidecar(s.dir, meta); err != nil {
		return err
	}
	if err := old.f.Close(); err != nil {
		return err
	}
	next, err := createSegment(s.dir, old.seq+1, meta.endIndex())
	if err != nil {
		return err
	}
	s.smu.Lock()
	s.sealed = append(s.sealed, meta)
	s.active = next
	s.smu.Unlock()
	s.met.sealedInc()
	return nil
}

// WALRecords reports how many records the WAL holds beyond the snapshot —
// the replay work a restart right now would perform.
func (s *Store) WALRecords() int {
	s.mu.Lock()
	total := s.total
	s.mu.Unlock()
	s.smu.Lock()
	mark := s.man.WALWatermark
	s.smu.Unlock()
	if total < mark {
		return 0
	}
	return int(total - mark)
}

// Close stops the compactor, drains and commits every queued append, and
// closes the live segment without snapshotting (crash-equivalent shutdown:
// recovery replays the tail). Callers wanting a fast next restart call
// Snapshot first, as the server's graceful shutdown does.
func (s *Store) Close() error {
	s.stopCompactor()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.flusherDone
		return nil
	}
	s.closed = true
	s.flushC.Signal()
	s.mu.Unlock()
	<-s.flusherDone
	s.smu.Lock()
	f := s.active.f
	s.smu.Unlock()
	return f.Close()
}

// stopCompactor shuts the background compactor down idempotently.
func (s *Store) stopCompactor() {
	if s.compactStop == nil {
		return
	}
	s.compactOnce.Do(func() { close(s.compactStop) })
	<-s.compactDone
}

// Stats is a point-in-time description of the store, surfaced by the
// server's store-status endpoint and recorded by benchmarks.
type Stats struct {
	// Engine identifies the storage engine ("segmented").
	Engine string `json:"engine"`
	// Segments counts WAL segment files on disk, live one included.
	Segments int `json:"segments"`
	// SealedSegments counts immutable, sidecar-indexed segments.
	SealedSegments int `json:"sealed_segments"`
	// WALBytes is the total size of all WAL segments.
	WALBytes int64 `json:"wal_bytes"`
	// TailRecords is the replay work a restart would do now: records
	// beyond the snapshot watermark.
	TailRecords int `json:"tail_records"`
	// SnapshotRecords is the number of records the snapshot covers.
	SnapshotRecords uint64 `json:"snapshot_records"`
	// Fsyncs counts fsync calls issued by the flusher.
	Fsyncs int64 `json:"fsyncs"`
	// Batches counts group-commit batches; Fsyncs/Batches ≈ 1, while
	// records-per-batch measures how much coalescing concurrency bought.
	Batches int64 `json:"batches"`
	// Compactions counts completed snapshot folds; CompactionErrors counts
	// failed attempts (the store keeps serving on a failed compaction).
	Compactions      int64 `json:"compactions"`
	CompactionErrors int64 `json:"compaction_errors"`
}

// Stats snapshots the store's current state.
func (s *Store) Stats() Stats {
	st := Stats{
		Engine:           "segmented",
		TailRecords:      s.WALRecords(),
		Fsyncs:           s.fsyncs.Load(),
		Batches:          s.batches.Load(),
		Compactions:      s.compactions.Load(),
		CompactionErrors: s.compactErrs.Load(),
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	st.SealedSegments = len(s.sealed)
	st.Segments = len(s.sealed) + 1
	st.WALBytes = s.active.bytes
	for _, m := range s.sealed {
		st.WALBytes += m.Bytes
	}
	st.SnapshotRecords = s.man.SnapshotRecords
	return st
}

// publishGauges refreshes the segment-count and byte gauges.
func (s *Store) publishGauges() {
	if !s.met.enabled() {
		return
	}
	s.smu.Lock()
	segs := len(s.sealed) + 1
	bytes := s.active.bytes
	for _, m := range s.sealed {
		bytes += m.Bytes
	}
	s.smu.Unlock()
	s.met.setSegments(float64(segs), float64(bytes))
}
