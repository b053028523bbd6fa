package engine

import (
	"container/list"
	"encoding/binary"
	"sync"

	"qres/internal/table"
	"qres/internal/uncertain"
)

// BuildCache keeps finished join builds of one uncertain database, so that
// later evaluations over it reuse a build instead of scanning and hashing
// its relation again. A service holds one per database and passes it to
// every evaluation in Exec.Builds. ARCHITECTURE.md, "Build reuse across
// evaluations", gives the design and the determinism argument:
//
//   - Key. A build is cacheable when its input compiles to one base
//     relation's scan with its fused filters. The key, built while that
//     input compiles, holds the relation's name and row count, every
//     filter as operator tags, resolved column positions and kind-tagged,
//     length-prefixed literals (never a plan's String, which prints
//     literals unquoted), and the positions of the equi-join key columns.
//   - Admission. The first sighting of a key records only the key; the
//     evaluation that sees it again keeps its build once the drain
//     succeeds. A failed drain is never kept.
//   - Bound. A kept build weighs its row count (at least one) and a key
//     seen once weighs one. Least-recently-used entries are evicted so the
//     total weight never exceeds the database's tuple count at
//     construction, and a kept build holds exact-size rows.
//   - Sharing. A kept build is immutable: concurrent evaluations probe it
//     read-only, and no probe or exchange Close releases it. When two
//     evaluations race to keep one key, the first insert wins; both
//     builds hold the same rows.
//
// A hit returns the rows a fresh drain would, in the same order and with
// the same provenance, so results stay bit-identical. A BuildCache is safe
// for concurrent use.
type BuildCache struct {
	udb   *uncertain.DB
	limit int

	mu      sync.Mutex
	entries map[string]*list.Element // values are *cacheEntry
	lru     list.List                // front: most recently used
	weight  int
}

// cacheEntry is one key's state: a sighting until kept is set, then an
// admitted build's rows and key-index partitions.
type cacheEntry struct {
	key   string
	kept  bool
	rows  []Row
	parts []buildPart
}

func (e *cacheEntry) weight() int {
	if !e.kept {
		return 1
	}
	return max(len(e.rows), 1)
}

// NewBuildCache returns an empty build cache for evaluations over db,
// bounded by db's tuple count.
func NewBuildCache(db *uncertain.DB) *BuildCache {
	return &BuildCache{udb: db, limit: db.Data().TotalTuples(), entries: make(map[string]*list.Element)}
}

// Rows reports the cache's weight: the rows of its kept builds plus one
// per key seen once. It never exceeds the database's tuple count.
func (c *BuildCache) Rows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weight
}

// lookup returns the build kept under key, if any. Otherwise it records a
// sighting of key and reports whether one was recorded before, in which
// case the caller keeps its build once the drain succeeds.
func (c *BuildCache) lookup(key []byte) (hit *cacheEntry, admit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		c.lru.MoveToFront(el)
		if e := el.Value.(*cacheEntry); e.kept {
			return e, false
		}
		return nil, true
	}
	c.insert(&cacheEntry{key: string(key)})
	return nil, false
}

// admit keeps a drained build under key, unless a build is kept there
// already (the first insert wins).
func (c *BuildCache) admit(key []byte, rows []Row, parts []buildPart) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		if el.Value.(*cacheEntry).kept {
			return
		}
		c.remove(el)
	}
	c.insert(&cacheEntry{key: string(key), kept: true, rows: rows, parts: parts})
}

// insert adds e as the most recently used entry, then evicts from the
// least recently used end until the weight fits the bound. An entry that
// alone outweighs the bound is not inserted.
func (c *BuildCache) insert(e *cacheEntry) {
	w := e.weight()
	if w > c.limit {
		return
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.weight += w
	for c.weight > c.limit {
		c.remove(c.lru.Back())
	}
}

func (c *BuildCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.weight -= e.weight()
}

// buildKey returns the cache key of a build that drains this scan, with
// conds its equi-join conditions (none for a nested-loop build).
func (s *scanIter) buildKey(conds []equiCond) []byte {
	k := appendKeyString(nil, s.rel.Name())
	k = appendKeyInt(k, s.rel.Len())
	k = appendKeyInt(k, len(conds))
	for _, c := range conds {
		k = appendKeyInt(k, c.rightIdx)
	}
	return append(k, s.filterKey...)
}

// The key encoders below write self-delimiting fields, so a key is a
// prefix-free sequence of fields and two keys are equal only when every
// field is.

// appendKeyInt appends a non-negative integer as a uvarint.
func appendKeyInt(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// appendKeyString appends a length-prefixed string.
func appendKeyString(dst []byte, s string) []byte { return append(appendKeyInt(dst, len(s)), s...) }

// appendKeyValue appends a literal: its kind, then its EncodeKey bytes
// (strings length-prefixed), then a NUL terminator.
func appendKeyValue(dst []byte, v table.Value) []byte {
	return append(v.EncodeKey(append(dst, byte(v.Kind()))), 0)
}
