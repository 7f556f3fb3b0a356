package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"accubench/internal/store"
)

// TestAppendBatchReplayRoundtrip locks the group-append contract: one
// AppendBatch call assigns consecutive sequence numbers, survives a
// close/reopen, and replays exactly like the same payloads appended one
// at a time.
func TestAppendBatchReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openSync(t, dir)
	payloads := make([][]byte, 9)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("batched-%04d", i))
	}
	first, err := l.AppendBatch(payloads[:4])
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Errorf("first batch starts at seq %d, want 1", first)
	}
	// A single append between batches must slot into the same sequence.
	if seq, err := appendOne(l, payloads[4]); err != nil || seq != 5 {
		t.Fatalf("interleaved append = (%d, %v), want (5, nil)", seq, err)
	}
	first, err = l.AppendBatch(payloads[5:])
	if err != nil {
		t.Fatal(err)
	}
	if first != 6 {
		t.Errorf("second batch starts at seq %d, want 6", first)
	}
	if got := l.Counters().Appends; got != uint64(len(payloads)) {
		t.Errorf("appends counter = %d, want %d", got, len(payloads))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = openSync(t, dir)
	defer l.Close()
	seqs, got := replayAll(t, l, 0)
	if len(got) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(got), len(payloads))
	}
	for i := range got {
		if seqs[i] != uint64(i+1) {
			t.Errorf("record %d replayed with seq %d, want %d", i, seqs[i], i+1)
		}
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}

// TestAppendBatchOneFsync asserts the point of the group commit: a
// whole batch reaches the disk in one write and one fsync, where the
// same records appended individually pay one each.
func TestAppendBatchOneFsync(t *testing.T) {
	l := openSync(t, t.TempDir())
	defer l.Close()
	payloads := make([][]byte, 16)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("fsync-%04d", i))
	}
	before := l.Counters().Fsyncs
	if _, err := l.AppendBatch(payloads); err != nil {
		t.Fatal(err)
	}
	if got := l.Counters().Fsyncs - before; got != 1 {
		t.Errorf("batch of %d cost %d fsyncs, want 1", len(payloads), got)
	}
}

// TestAppendBatchRejectsOversized locks the validation edges: an empty
// batch is refused, and one oversized payload fails the whole batch
// before anything is written.
func TestAppendBatchRejectsOversized(t *testing.T) {
	l := openSync(t, t.TempDir())
	defer l.Close()
	if _, err := l.AppendBatch(nil); err == nil {
		t.Error("empty batch did not error")
	}
	huge := make([]byte, MaxPayload+1)
	if _, err := l.AppendBatch([][]byte{[]byte("ok"), huge}); err == nil {
		t.Fatal("oversized payload inside a batch did not fail the append")
	}
	if got := l.Counters().Appends; got != 0 {
		t.Errorf("failed batch still appended %d records", got)
	}
	if got, _ := l.AppendBatch([][]byte{[]byte("after")}); got != 1 {
		t.Errorf("sequence advanced to %d after a rejected batch, want 1", got)
	}
}

// TestCommitBatchCrashRecover is the persister half of the group
// commit: CommitBatch assigns consecutive sequence numbers, every
// record is visible in the store the moment the call returns, and a
// crash without flush or snapshot loses nothing — the batch's single
// log write carried it all.
func TestCommitBatchCrashRecover(t *testing.T) {
	dir := t.TempDir()
	p, st, _ := openPersister(t, dir)
	recs := make([]*store.Record, 20)
	for i := range recs {
		r := record(i)
		recs[i] = &r
	}
	if err := p.CommitBatch(recs); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d carries seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if st.Len() != len(recs) {
		t.Fatalf("store holds %d records after the batch, want %d", st.Len(), len(recs))
	}
	want := st.Snapshot()
	p.Crash()

	p2, st2, rec2 := openPersister(t, dir)
	defer p2.Close()
	if rec2.Replayed != len(recs) {
		t.Fatalf("post-crash recovery replayed %d, want %d", rec2.Replayed, len(recs))
	}
	if got := st2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered store diverged:\n got %+v\nwant %+v", got, want)
	}
	// The recovered log continues the batch's sequence.
	r := record(99)
	if _, err := p2.Commit(&r); err != nil {
		t.Fatal(err)
	}
	if r.Seq != uint64(len(recs)+1) {
		t.Errorf("post-recovery commit got seq %d, want %d", r.Seq, len(recs)+1)
	}
}
