package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"accubench/internal/store"
)

// record builds a storable record; every third one is rejected so the
// accepted accounting is exercised too.
func record(i int) store.Record {
	r := store.Record{
		Device:           fmt.Sprintf("pd-%03d", i),
		Model:            "Nexus 5",
		Score:            1000 + float64(i),
		EstimatedAmbient: 25,
		Accepted:         i%3 != 0,
	}
	if !r.Accepted {
		r.RejectReason = "hot climate"
	}
	return r
}

// openPersister opens a synchronous-fsync persister over a fresh store.
func openPersister(t *testing.T, dir string, mut ...func(*PersistConfig)) (*Persister, *store.Store, Recovery) {
	t.Helper()
	cfg := PersistConfig{Dir: dir}
	for _, m := range mut {
		m(&cfg)
	}
	st := store.New(4)
	p, rec, err := Open(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	return p, st, rec
}

// commitN commits n records and returns the store's resulting state.
func commitN(t *testing.T, p *Persister, st *store.Store, n int) []store.Record {
	t.Helper()
	for i := 0; i < n; i++ {
		r := record(i)
		seq, err := p.Commit(&r)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if seq == 0 || r.Seq != seq {
			t.Fatalf("commit %d assigned seq %d, record carries %d", i, seq, r.Seq)
		}
	}
	return st.Snapshot()
}

func TestCommitCrashRecover(t *testing.T) {
	dir := t.TempDir()
	p, st, rec := openPersister(t, dir)
	if rec.Restored != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh directory reported recovery %+v", rec)
	}
	want := commitN(t, p, st, 30)
	p.Crash() // no final flush, no snapshot — the log alone must carry it

	p2, st2, rec2 := openPersister(t, dir)
	defer p2.Close()
	if rec2.Replayed != 30 || rec2.Restored != 30 || rec2.SnapshotRecords != 0 {
		t.Fatalf("post-crash recovery = %+v, want 30 replayed from the log", rec2)
	}
	got := st2.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered store diverged:\n got %+v\nwant %+v", got, want)
	}
	if st2.Len() != 30 || st2.AcceptedLen() != st.AcceptedLen() {
		t.Fatalf("recovered store holds %d/%d, want %d/%d",
			st2.Len(), st2.AcceptedLen(), st.Len(), st.AcceptedLen())
	}
	// Commits resume past the recovered tail.
	r := record(99)
	if seq, err := p2.Commit(&r); err != nil || seq != 31 {
		t.Fatalf("commit after recovery = (%d, %v), want (31, nil)", seq, err)
	}
}

func TestSnapshotCompactsAndRestores(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so compaction has something to delete.
	p, st, _ := openPersister(t, dir, func(c *PersistConfig) { c.SegmentBytes = 256 })
	commitN(t, p, st, 40)
	// The first snapshot compacts nothing: its log stays until a newer
	// snapshot makes it the fallback.
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := commitN(t, p, st, 40)
	before := p.Counters()
	if before.Log.Segments < 2 {
		t.Fatalf("80 commits over 256-byte segments left %d segments", before.Log.Segments)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after := p.Counters()
	if after.Snapshots != 2 || after.LastSnapshotSeq != 80 {
		t.Fatalf("counters after snapshot = %+v", after)
	}
	if after.Log.Segments >= before.Log.Segments {
		t.Fatalf("snapshot compacted nothing: %d → %d segments", before.Log.Segments, after.Log.Segments)
	}
	// A third snapshot with nothing new is a no-op.
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if c := p.Counters(); c.Snapshots != 2 {
		t.Fatalf("idle snapshot cut a file: %+v", c)
	}
	p.Crash()

	// Recovery now comes from the snapshot, not replay.
	p2, st2, rec := openPersister(t, dir, func(c *PersistConfig) { c.SegmentBytes = 256 })
	defer p2.Close()
	if rec.SnapshotSeq != 80 || rec.SnapshotRecords != 80 || rec.Replayed != 0 {
		t.Fatalf("recovery = %+v, want all 80 from the snapshot", rec)
	}
	if got := st2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot-restored store diverged from the committed state")
	}
}

func TestGracefulCloseNeedsNoReplay(t *testing.T) {
	dir := t.TempDir()
	p, st, _ := openPersister(t, dir)
	want := commitN(t, p, st, 12)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, st2, rec := openPersister(t, dir)
	if rec.Replayed != 0 {
		t.Fatalf("clean shutdown still replayed %d records", rec.Replayed)
	}
	if rec.SnapshotSeq != 12 || rec.Restored != 12 {
		t.Fatalf("recovery after clean shutdown = %+v", rec)
	}
	if got := st2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("store after clean shutdown diverged")
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashAfterSnapshotReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	p, st, _ := openPersister(t, dir)
	commitN(t, p, st, 20)
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Ten more commits after the checkpoint, then a hard kill.
	for i := 20; i < 30; i++ {
		r := record(i)
		if _, err := p.Commit(&r); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Snapshot()
	p.Crash()

	p2, st2, rec := openPersister(t, dir)
	defer p2.Crash()
	if rec.SnapshotSeq != 20 || rec.SnapshotRecords != 20 || rec.Replayed != 10 || rec.Restored != 30 {
		t.Fatalf("recovery = %+v, want snapshot 20 + replay 10", rec)
	}
	if got := st2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot+tail recovery diverged from the committed state")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, _, err := Open(PersistConfig{}, store.New(1)); err == nil {
		t.Error("persister opened without a data directory")
	}
}

// commitRange commits record(i) for every i in [from, to).
func commitRange(t *testing.T, p *Persister, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		r := record(i)
		if _, err := p.Commit(&r); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// TestFallbackSnapshotReplaysExactly damages the newest snapshot after a
// crash: recovery falls back to the previous snapshot, and the log still
// holds every record after it, so every committed record comes back.
func TestFallbackSnapshotReplaysExactly(t *testing.T) {
	dir := t.TempDir()
	small := func(c *PersistConfig) { c.SegmentBytes = 512 }
	p, st, _ := openPersister(t, dir, small)
	commitRange(t, p, 0, 50)
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	commitRange(t, p, 50, 100)
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := st.Snapshot()
	p.Crash()

	newest := filepath.Join(dir, snapshotName(100))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[SnapshotHeaderSize+1] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, st2, rec := openPersister(t, dir, small)
	defer p2.Close()
	if rec.SnapshotSeq != 50 || rec.Replayed != 50 || rec.Restored != 100 || rec.LastSeq != 100 {
		t.Fatalf("recovery past a damaged snapshot = %+v, want snapshot 50 plus 50 replayed", rec)
	}
	if got := st2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback recovery diverged from the committed state")
	}
}

// TestRecoveryRefusesLogGap deletes a middle segment: Open must fail and
// name the missing records instead of restoring the survivors as if
// nothing were lost.
func TestRecoveryRefusesLogGap(t *testing.T) {
	dir := t.TempDir()
	p, _, _ := openPersister(t, dir, func(c *PersistConfig) { c.SegmentBytes = 512 })
	commitRange(t, p, 0, 60)
	p.Crash()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("60 commits over 512-byte segments left %d segments", len(segs))
	}
	i := len(segs) / 2
	if err := os.Remove(segs[i].path); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(PersistConfig{Dir: dir}, store.New(4))
	if err == nil {
		t.Fatal("recovery over a log with a missing segment succeeded")
	}
	if want := fmt.Sprintf("records %d through %d missing", segs[i].first, segs[i+1].first-1); !strings.Contains(err.Error(), want) {
		t.Errorf("recovery error %q does not name the gap (%q)", err, want)
	}
}

// TestUnknownSnapshotVersionStopsRecovery rewrites the only snapshot's
// format version to 2 under a valid header checksum: Open must refuse
// it, naming both versions, rather than skip it as if it were torn.
func TestUnknownSnapshotVersionStopsRecovery(t *testing.T) {
	dir := t.TempDir()
	p, st, _ := openPersister(t, dir, func(c *PersistConfig) { c.SegmentBytes = 512 })
	commitN(t, p, st, 60)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, snapshotName(60))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], 2)
	binary.LittleEndian.PutUint32(data[44:48], crc32.Checksum(data[0:44], castagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(PersistConfig{Dir: dir}, store.New(4))
	if err == nil {
		t.Fatal("recovery skipped a snapshot in an unknown format version")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, fmt.Sprintf("reads %d", SnapshotVersion)) {
		t.Errorf("recovery error %q does not name both format versions", msg)
	}
}
