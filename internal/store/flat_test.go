package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"qres/internal/boolexpr"
	"qres/internal/resolve"
)

// flatStore is the retired flat probes store: a JSONL snapshot plus a
// JSONL write-ahead log under one directory, one fsync per append batch
// and the whole log replayed on every open. It stays here as the pinned
// control of BenchmarkStoreRecovery, BenchmarkStoreAppend and
// TestRecoveryEquivalenceWithFlatStore, and as the writer of the legacy
// directories the migration tests read. Open, append and snapshot do the
// same file I/O and JSON work the production flat engine did, so the
// benchmark control measures what it always measured.
type flatStore struct {
	dir    string
	nameFn func(boolexpr.Var) string

	mu  sync.Mutex // serializes appends and snapshots
	wal *os.File
}

// flatProbe is one JSONL line, the resolve.SaveJSON record format.
type flatProbe struct {
	Var    string            `json:"var,omitempty"`
	Meta   map[string]string `json:"meta,omitempty"`
	Answer bool              `json:"answer"`
}

// openFlatStore opens (creating if needed) the flat store in dir and
// recovers its repository: the snapshot, then the repaired WAL replayed on
// top.
func openFlatStore(dir string, nameFn func(boolexpr.Var) string, resolveFn func(string) (boolexpr.Var, bool)) (*flatStore, *resolve.Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	repo, err := loadFlatFile(filepath.Join(dir, legacySnapshotFile), resolveFn)
	if err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(dir, legacyWALFile)
	if err := repairFlatWAL(walPath); err != nil {
		return nil, nil, err
	}
	walRepo, err := loadFlatFile(walPath, resolveFn)
	if err != nil {
		return nil, nil, err
	}
	for _, rec := range walRepo.Records() {
		if rec.HasVar {
			repo.AddVar(rec.Var, rec.Meta, rec.Answer)
		} else {
			repo.Add(rec.Meta, rec.Answer)
		}
	}
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &flatStore{dir: dir, nameFn: nameFn, wal: wal}, repo, nil
}

// loadFlatFile loads one JSONL file; an absent file holds no records.
func loadFlatFile(path string, resolveFn func(string) (boolexpr.Var, bool)) (*resolve.Repository, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return resolve.NewRepository(), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return resolve.LoadJSON(f, resolveFn)
}

// repairFlatWAL truncates the log to the end of its last complete,
// well-formed line, so appends after a crash start on a clean line
// boundary. It decodes every line, as the flat engine always did; an
// undecodable line with further lines after it is damage, reported with
// its byte offset and left in place.
func repairFlatWAL(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	validEnd := 0
	for off := 0; off < len(data); {
		lineStart := off
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated trailing fragment
		}
		line := data[off : off+nl]
		off += nl + 1
		if len(line) > 0 {
			var fp flatProbe
			if err := json.Unmarshal(line, &fp); err != nil {
				if len(bytes.TrimSpace(data[off:])) > 0 {
					return fmt.Errorf("corrupt flat WAL %s at byte offset %d: %w", path, lineStart, err)
				}
				break
			}
		}
		validEnd = off
	}
	if validEnd == len(data) {
		return nil
	}
	return truncateSegment(path, int64(validEnd))
}

// Update runs fn under the store lock with an append function whose
// records are fsynced before it returns, excluding Snapshot meanwhile.
func (s *flatStore) Update(fn func(append func(...resolve.ProbeRecord) error) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn(s.appendLocked)
}

// appendLocked encodes the records as JSONL, writes them in one call and
// fsyncs.
func (s *flatStore) appendLocked(recs ...resolve.ProbeRecord) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		fp := flatProbe{Meta: rec.Meta, Answer: rec.Answer}
		if rec.HasVar && s.nameFn != nil {
			fp.Var = s.nameFn(rec.Var)
		}
		line, err := json.Marshal(fp)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if _, err := s.wal.Write(buf); err != nil {
		return err
	}
	return s.wal.Sync()
}

// Snapshot atomically persists the full repository and resets the WAL.
func (s *flatStore) Snapshot(repo *resolve.Repository) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	if err := repo.SaveJSON(&buf, s.nameFn); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, legacySnapshotFile), buf.Bytes()); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	walPath := filepath.Join(s.dir, legacyWALFile)
	if err := os.Truncate(walPath, 0); err != nil {
		return err
	}
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.wal = wal
	return nil
}

// Close closes the WAL without snapshotting (a crash-equivalent close).
func (s *flatStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Close()
}
