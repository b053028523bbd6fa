package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/resolve"
)

// testEnv bundles a registry with the Options every test store shares.
type testEnv struct {
	reg  *boolexpr.Registry
	opts Options
}

func newTestEnv() *testEnv {
	reg := boolexpr.NewRegistry()
	return &testEnv{
		reg: reg,
		opts: Options{
			NameFn:    reg.Name,
			ResolveFn: func(n string) (boolexpr.Var, bool) { return reg.Lookup(n) },
		},
	}
}

// updater is what the segmented Store and the flat control share: an
// Update that pairs repository adds with durable appends.
type updater interface {
	Update(fn func(append func(...resolve.ProbeRecord) error) error) error
}

// addOne pairs one repository add with one WAL append inside a single
// Update, as the server's answer path does.
func addOne(t *testing.T, st updater, repo *resolve.Repository, rec resolve.ProbeRecord) {
	t.Helper()
	err := st.Update(func(ap func(...resolve.ProbeRecord) error) error {
		if rec.HasVar {
			repo.AddVar(rec.Var, rec.Meta, rec.Answer)
		} else {
			repo.Add(rec.Meta, rec.Answer)
		}
		return ap(rec)
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
}

// probeSeq builds n distinct records, mixing variable-bound and
// metadata-only ones.
func (e *testEnv) probeSeq(n int) []resolve.ProbeRecord {
	recs := make([]resolve.ProbeRecord, n)
	for i := range recs {
		recs[i] = resolve.ProbeRecord{
			Meta:   map[string]string{"i": strconv.Itoa(i), "source": "test"},
			Answer: i%3 != 0,
		}
		if i%4 != 3 { // every fourth record is metadata-only
			recs[i].Var = e.reg.Intern(fmt.Sprintf("facts[%d]", i))
			recs[i].HasVar = true
		}
	}
	return recs
}

// saveBytes renders a repository through the canonical JSONL writer, the
// byte-level yardstick for recovery equivalence.
func saveBytes(t *testing.T, repo *resolve.Repository, name func(boolexpr.Var) string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := repo.SaveJSON(&buf, name); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fileExists reports whether path exists.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestStoreRoundTrip(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := env.probeSeq(20)
	for _, rec := range recs {
		addOne(t, st, repo, rec)
	}
	if got := st.WALRecords(); got != 20 {
		t.Errorf("WALRecords = %d, want 20", got)
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-equivalent close: recovery replays the tail.
	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("recovered repository differs:\ngot  %s\nwant %s", got, want)
	}
}

func TestRecoveryEquivalenceWithFlatStore(t *testing.T) {
	// The same probe stream driven through the flat control store and the
	// segmented store — including a mid-stream snapshot and a
	// crash-equivalent close — must recover to byte-identical
	// repositories.
	env := newTestEnv()
	recs := env.probeSeq(60)

	flatDir, segDir := t.TempDir(), t.TempDir()
	flat, flatRepo, err := openFlatStore(flatDir, env.opts.NameFn, env.opts.ResolveFn)
	if err != nil {
		t.Fatal(err)
	}
	seg, segRepo, err := Open(segDir, Options{
		NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn,
		SegmentBytes: 512, // force several rotations
	})
	if err != nil {
		t.Fatal(err)
	}

	for i, rec := range recs {
		addOne(t, flat, flatRepo, rec)
		addOne(t, seg, segRepo, rec)
		if i == 40 { // snapshot mid-stream in both engines
			if err := flat.Snapshot(flatRepo); err != nil {
				t.Fatal(err)
			}
			if err := seg.Snapshot(segRepo); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	flat2, flatBack, err := openFlatStore(flatDir, env.opts.NameFn, env.opts.ResolveFn)
	if err != nil {
		t.Fatal(err)
	}
	defer flat2.Close()
	seg2, segBack, err := Open(segDir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()

	flatBytes := saveBytes(t, flatBack, env.reg.Name)
	segBytes := saveBytes(t, segBack, env.reg.Name)
	if !bytes.Equal(flatBytes, segBytes) {
		t.Errorf("engines diverge after recovery:\nflat %s\nseg  %s", flatBytes, segBytes)
	}
}

func TestGroupCommitDurability(t *testing.T) {
	// Concurrent answer paths: every Update that returned must survive a
	// crash-equivalent close, and the concurrent appends should have
	// shared fsyncs.
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := resolve.ProbeRecord{
					Meta:   map[string]string{"w": strconv.Itoa(w), "i": strconv.Itoa(i)},
					Answer: true,
				}
				err := st.Update(func(ap func(...resolve.ProbeRecord) error) error {
					repo.Add(rec.Meta, rec.Answer)
					return ap(rec)
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Fsyncs == 0 || stats.Fsyncs > writers*perWriter {
		t.Errorf("Fsyncs = %d, want in [1, %d]", stats.Fsyncs, writers*perWriter)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := repo2.Len(); got != writers*perWriter {
		t.Errorf("recovered %d records, want %d (acked appends lost)", got, writers*perWriter)
	}
}

func TestSnapshotCompactsSealedSegments(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, Options{
		NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn,
		SegmentBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range env.probeSeq(50) {
		addOne(t, st, repo, rec)
	}
	before := st.Stats()
	if before.SealedSegments == 0 {
		t.Fatalf("no rotation at SegmentBytes=256 after 50 records")
	}
	if err := st.Snapshot(repo); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
		t.Errorf("snapshot left temp files: %v", tmps)
	}
	after := st.Stats()
	if after.SealedSegments != 0 {
		t.Errorf("SealedSegments = %d after snapshot, want 0", after.SealedSegments)
	}
	if after.SnapshotRecords != 50 {
		t.Errorf("SnapshotRecords = %d, want 50", after.SnapshotRecords)
	}
	if got := st.WALRecords(); got != 0 {
		t.Errorf("WALRecords = %d after snapshot, want 0", got)
	}
	// Records appended after the snapshot are tail-only replay work.
	addOne(t, st, repo, resolve.ProbeRecord{Meta: map[string]string{"i": "tail"}, Answer: true})
	if got := st.WALRecords(); got != 1 {
		t.Errorf("WALRecords = %d after post-snapshot append, want 1", got)
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("post-compaction recovery differs:\ngot  %s\nwant %s", got, want)
	}
}

func TestBackgroundCompactorFoldsSealedSegments(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, Options{
		NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn,
		SegmentBytes:    256,
		CompactInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range env.probeSeq(50) {
		addOne(t, st, repo, rec)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := st.Stats()
		if stats.Compactions > 0 && stats.SealedSegments == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never folded sealed segments: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Appends keep working while and after compaction runs.
	addOne(t, st, repo, resolve.ProbeRecord{Meta: map[string]string{"i": "post"}, Answer: true})
}

func TestRecoverySkipsCoveredSegmentsWithoutReadingThem(t *testing.T) {
	// The block-index skip is what makes restart sublinear: a sealed
	// segment whose sidecar proves it is below the snapshot watermark is
	// never read. Left-over covered segments (best-effort deletes) are
	// fine even when their contents are garbage.
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, Options{
		NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn,
		SegmentBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range env.probeSeq(40) {
		addOne(t, st, repo, rec)
	}
	// Capture a sealed segment + sidecar, snapshot (which deletes it),
	// then restore the pair with the segment body replaced by garbage.
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err %v)", seqs, err)
	}
	coveredSeq := seqs[0]
	sidecar, rerr := os.ReadFile(sidecarPath(dir, coveredSeq))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err := st.Snapshot(repo); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir, coveredSeq), []byte("garbage, never read"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecarPath(dir, coveredSeq), sidecar, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatalf("recovery read a snapshot-covered segment: %v", err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("recovery differs:\ngot  %s\nwant %s", got, want)
	}
	if fileExists(segmentPath(dir, coveredSeq)) {
		t.Errorf("covered leftover segment %d not reaped", coveredSeq)
	}
}

// Sidecars written before the block index dropped its variable list also
// carry a sorted "vars" field. Recovery must accept them as they are —
// without rewriting them — and recover the same repository.
func TestRecoveryAcceptsSidecarsWithVars(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	opts := Options{NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn, SegmentBytes: 256}
	st, repo, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range env.probeSeq(40) {
		addOne(t, st, repo, rec)
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite every sealed segment's sidecar in the older format: the
	// same index plus the sorted names of the variables its records bind.
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) < 3 {
		t.Fatalf("want >= 3 segments, got %v (err %v)", seqs, err)
	}
	type varsSidecar struct {
		Seq        uint64   `json:"seq"`
		FirstIndex uint64   `json:"first_index"`
		Records    uint64   `json:"records"`
		Bytes      int64    `json:"bytes"`
		Vars       []string `json:"vars"`
	}
	written := make(map[uint64][]byte)
	for _, seq := range seqs[:len(seqs)-1] {
		meta, ok := readSidecar(dir, seq)
		if !ok {
			t.Fatalf("sealed segment %d has no sidecar", seq)
		}
		res, err := scanSegment(segmentPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		old := varsSidecar{Seq: meta.Seq, FirstIndex: meta.FirstIndex, Records: meta.Records, Bytes: meta.Bytes, Vars: []string{}}
		for _, rec := range res.records {
			if rec.hasVar {
				old.Vars = append(old.Vars, rec.varName)
			}
		}
		sort.Strings(old.Vars)
		data, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(sidecarPath(dir, seq), data, 0o644); err != nil {
			t.Fatal(err)
		}
		written[seq] = data
	}

	st2, repo2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery rejected sidecars with a vars list: %v", err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("recovery differs:\ngot  %s\nwant %s", got, want)
	}
	for seq, data := range written {
		got, err := os.ReadFile(sidecarPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("sidecar of segment %d rewritten:\ngot  %s\nwant %s", seq, got, data)
		}
	}
}

func TestMidSegmentCorruptionIsLocated(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range env.probeSeq(10) {
		addOne(t, st, repo, rec)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the live segment: CRC fails
	// there, well-formed frames follow, so this is mid-file damage —
	// reported with file, offset, and record index, never repaired.
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, seqs[len(seqs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	data[mid] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, env.opts)
	if err == nil {
		t.Fatal("mid-segment corruption accepted")
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (type %T) does not wrap *CorruptionError", err, err)
	}
	if ce.Path != path {
		t.Errorf("Path = %q, want %q", ce.Path, path)
	}
	if ce.Offset <= 0 || ce.Offset >= int64(len(data)) {
		t.Errorf("Offset = %d, want within (0, %d)", ce.Offset, len(data))
	}
	if ce.Record < 0 || ce.Record >= 10 {
		t.Errorf("Record = %d, want within [0, 10)", ce.Record)
	}
	// The operator sees only the message: it must name the same location.
	msg := err.Error()
	for _, want := range []string{path, fmt.Sprintf("record %d", ce.Record), fmt.Sprintf("byte offset %d", ce.Offset)} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %q", msg, want)
		}
	}
	if cause := errors.Unwrap(ce); cause == nil || cause != ce.Err {
		t.Errorf("errors.Unwrap = %v, want the decode failure %v", cause, ce.Err)
	}
}

// writeLegacyStore drives recs through the flat control into dir,
// snapshotting after record snapAt, then crash-closes it: the legacy
// snapshot-plus-WAL layout that Open migrates. It returns the canonical
// bytes of the repository the directory holds.
func writeLegacyStore(t *testing.T, env *testEnv, dir string, recs []resolve.ProbeRecord, snapAt int) []byte {
	t.Helper()
	flat, repo, err := openFlatStore(dir, env.opts.NameFn, env.opts.ResolveFn)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		addOne(t, flat, repo, rec)
		if i == snapAt {
			if err := flat.Snapshot(repo); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	return saveBytes(t, repo, env.reg.Name)
}

// assertLegacyGone fails when a legacy file is still in dir.
func assertLegacyGone(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{legacySnapshotFile, legacyWALFile} {
		if fileExists(filepath.Join(dir, name)) {
			t.Errorf("legacy file %s survived migration", name)
		}
	}
}

func TestLegacyFlatStoreMigration(t *testing.T) {
	// A directory written by the flat store — snapshot plus WAL tail — is
	// migrated in place on first open and never consulted again.
	env := newTestEnv()
	dir := t.TempDir()
	want := writeLegacyStore(t, env, dir, env.probeSeq(30), 20)

	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatalf("migration: %v", err)
	}
	if got := saveBytes(t, repo, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("migrated repository differs:\ngot  %s\nwant %s", got, want)
	}
	assertLegacyGone(t, dir)
	// Keep using the migrated store, then recover once more.
	addOne(t, st, repo, resolve.ProbeRecord{Meta: map[string]string{"i": "post"}, Answer: false})
	want = saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("post-migration recovery differs:\ngot  %s\nwant %s", got, want)
	}
}

func TestLegacyMigrationSkipsTornWALLine(t *testing.T) {
	// A crash mid-append leaves the legacy WAL ending in a torn line:
	// migration keeps every complete record and drops the fragment.
	env := newTestEnv()
	dir := t.TempDir()
	recs := env.probeSeq(12)
	want := writeLegacyStore(t, env, dir, recs, 5)
	f, err := os.OpenFile(filepath.Join(dir, legacyWALFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"var":"facts[99]","meta":{"sou`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatalf("migration: %v", err)
	}
	defer st.Close()
	if got := saveBytes(t, repo, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("migrated repository differs:\ngot  %s\nwant %s", got, want)
	}
	if man, _, err := readManifest(dir); err != nil || man.SnapshotRecords != uint64(len(recs)) {
		t.Errorf("manifest = %+v (err %v), want %d snapshot records", man, err, len(recs))
	}
	assertLegacyGone(t, dir)
}

func TestLegacyMigrationRejectsMidFileDamage(t *testing.T) {
	// A bad line with good lines after it is damage, not a torn append:
	// Open fails naming the file and the line, leaves both legacy files
	// byte-identical, and writes no manifest.
	env := newTestEnv()
	dir := t.TempDir()
	writeLegacyStore(t, env, dir, env.probeSeq(12), 5)
	snapPath := filepath.Join(dir, legacySnapshotFile)
	walPath := filepath.Join(dir, legacyWALFile)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(wal, []byte("\n"))
	lines[1] = []byte("}}corrupt{{\n")
	if err := os.WriteFile(walPath, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, path := range []string{snapPath, walPath} {
		if before[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}

	_, _, err = Open(dir, env.opts)
	if err == nil {
		t.Fatal("mid-file legacy WAL damage accepted")
	}
	for _, want := range []string{walPath, "line 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	for path, data := range before {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s modified by failed migration (err %v)", path, err)
		}
	}
	if fileExists(filepath.Join(dir, manifestName)) {
		t.Error("failed migration wrote a manifest")
	}
}

func TestLegacyFilesBesideManifestAreRemovedUnread(t *testing.T) {
	// A crash after migration's manifest landed, before the legacy files
	// were deleted: the next open removes them without reading them (the
	// damaged copies planted here would fail any read) and recovers from
	// the manifest alone.
	env := newTestEnv()
	dir := t.TempDir()
	want := writeLegacyStore(t, env, dir, env.probeSeq(12), 5)
	st, _, err := Open(dir, env.opts)
	if err != nil {
		t.Fatalf("migration: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	damaged := []byte("not json\n" + `{"answer":true}` + "\n")
	for _, name := range []string{legacySnapshotFile, legacyWALFile} {
		if err := os.WriteFile(filepath.Join(dir, name), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatalf("open beside leftover legacy files: %v", err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("recovered repository differs:\ngot  %s\nwant %s", got, want)
	}
	assertLegacyGone(t, dir)
}

func TestAppendAfterCloseFails(t *testing.T) {
	env := newTestEnv()
	st, _, err := Open(t.TempDir(), env.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	err = st.Append(resolve.ProbeRecord{Meta: map[string]string{"i": "late"}, Answer: true})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: err = %v, want ErrClosed", err)
	}
}
