package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openSync opens a log; an idle append fsyncs before it returns, so a
// test running one appender at a time sees one fsync per append.
func openSync(t *testing.T, dir string, mut ...func(*Config)) *Log {
	t.Helper()
	cfg := Config{Dir: dir}
	for _, m := range mut {
		m(&cfg)
	}
	l, err := OpenLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendOne appends one payload as a batch of one.
func appendOne(l *Log, payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// appendN appends n numbered payloads and returns them.
func appendN(t *testing.T, l *Log, n int) [][]byte {
	t.Helper()
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("record-%04d", i))
		seq, err := appendOne(l, payloads[i])
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := l.Counters().LastSeq; seq != want {
			t.Fatalf("append %d returned seq %d, log says %d", i, seq, want)
		}
	}
	return payloads
}

// replayAll collects every record past `after` as (seq, payload) pairs.
func replayAll(t *testing.T, l *Log, after uint64) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(after, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openSync(t, dir)
	want := appendN(t, l, 25)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open sees everything, in order, with contiguous seqs from 1.
	l2 := openSync(t, dir)
	defer l2.Close()
	seqs, got := replayAll(t, l2, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, appended %d", len(got), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) {
			t.Errorf("record %d replayed with seq %d", i, seqs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d payload drifted: %q != %q", i, got[i], want[i])
		}
	}
	// Appends continue the sequence.
	if seq, err := appendOne(l2, []byte("after-reopen")); err != nil || seq != 26 {
		t.Errorf("append after reopen = (%d, %v), want (26, nil)", seq, err)
	}
	// Replay past a midpoint skips the covered prefix.
	midSeqs, _ := replayAll(t, l2, 20)
	if len(midSeqs) != 6 || midSeqs[0] != 21 {
		t.Errorf("replay after 20 returned seqs %v", midSeqs)
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Each frame is 16 + 11 = 27 bytes; a 100-byte threshold rotates
	// every fourth append.
	l := openSync(t, dir, func(c *Config) { c.SegmentBytes = 100 })
	appendN(t, l, 20)

	c := l.Counters()
	if c.Segments < 3 {
		t.Fatalf("20 appends over a 100-byte threshold left %d segments, want several", c.Segments)
	}
	if c.Appends != 20 || c.LastSeq != 20 {
		t.Fatalf("counters = %+v", c)
	}

	// Compacting through seq 10 removes every segment fully covered by it
	// — and replay afterwards yields exactly the uncovered tail.
	removed, err := l.CompactThrough(10)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	seqs, _ := replayAll(t, l, 10)
	if len(seqs) != 10 || seqs[0] != 11 || seqs[len(seqs)-1] != 20 {
		t.Fatalf("post-compaction replay seqs %v, want 11..20", seqs)
	}

	// The active segment survives even a compaction point past the tail.
	if _, err := l.CompactThrough(10_000); err != nil {
		t.Fatal(err)
	}
	if c := l.Counters(); c.Segments != 1 {
		t.Fatalf("compaction left %d segments, the active one must survive", c.Segments)
	}
	if seq, err := appendOne(l, []byte("still-appendable")); err != nil || seq != 21 {
		t.Fatalf("append after full compaction = (%d, %v), want (21, nil)", seq, err)
	}
	l.Close()
}

// activeSegment returns the path of the highest-numbered segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return segs[len(segs)-1].path
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openSync(t, dir)
	appendN(t, l, 5)
	l.Close()

	// A crash mid-write leaves a partial frame at the tail.
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	path := activeSegment(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openSync(t, dir)
	defer l2.Close()
	if got := l2.Counters().TruncatedBytes; got != int64(len(garbage)) {
		t.Errorf("truncated %d bytes, want %d", got, len(garbage))
	}
	seqs, _ := replayAll(t, l2, 0)
	if len(seqs) != 5 {
		t.Fatalf("torn tail cost committed records: replayed %d, want 5", len(seqs))
	}
	if seq, err := appendOne(l2, []byte("after-tear")); err != nil || seq != 6 {
		t.Errorf("append after torn-tail recovery = (%d, %v), want (6, nil)", seq, err)
	}
}

func TestBitFlippedTailDropsOnlyLastRecord(t *testing.T) {
	dir := t.TempDir()
	l := openSync(t, dir)
	want := appendN(t, l, 3)
	l.Close()

	// Flip one bit inside the last frame's payload: the CRC fails, the
	// scanner stops at the previous frame, and open truncates the rest.
	path := activeSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := FrameHeaderSize + len(want[2])
	data[len(data)-lastFrame+FrameHeaderSize+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openSync(t, dir)
	defer l2.Close()
	if got := l2.Counters().TruncatedBytes; got != int64(lastFrame) {
		t.Errorf("truncated %d bytes, want the whole %d-byte corrupt frame", got, lastFrame)
	}
	seqs, payloads := replayAll(t, l2, 0)
	if len(seqs) != 2 {
		t.Fatalf("replayed %d records, want 2 (the corrupt third dropped)", len(seqs))
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(payloads[i], want[i]) {
			t.Errorf("surviving record %d drifted: %q", i, payloads[i])
		}
	}
	// The dropped record's seq is reused — the log's tail really moved back.
	if seq, err := appendOne(l2, []byte("replacement")); err != nil || seq != 3 {
		t.Errorf("append after truncation = (%d, %v), want (3, nil)", seq, err)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openSync(t, dir)
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := appendOne(l, []byte(fmt.Sprintf("concurrent-%03d", i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Appends != n || c.LastSeq != n {
		t.Fatalf("counters after concurrent appends: %+v", c)
	}
	if c.Fsyncs == 0 || c.Fsyncs > c.Appends {
		t.Fatalf("group commit ran %d fsyncs for %d appends", c.Fsyncs, c.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Every append that returned is on disk.
	l2 := openSync(t, dir)
	defer l2.Close()
	seqs, _ := replayAll(t, l2, 0)
	if len(seqs) != n {
		t.Fatalf("replayed %d of %d concurrent appends", len(seqs), n)
	}
}

// holdFirstFsync returns a FsyncDelay that parks the log's first fsync:
// entered closes once it is parked, and the fsync proceeds when release
// is closed. Later fsyncs run undelayed.
func holdFirstFsync() (delay func(), entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	delay = func() {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	return delay, entered, release
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldLeader opens a log whose first fsync is parked, appends one record
// whose appender becomes the leader and parks in that fsync, then starts
// n more appenders and waits until every one of them has written. It
// returns the log, the leader's result, the others' results and the
// parked fsync's release.
func heldLeader(t *testing.T, dir string, n int, mut ...func(*Config)) (l *Log, leader, others chan error, release chan struct{}) {
	t.Helper()
	delay, entered, release := holdFirstFsync()
	l = openSync(t, dir, append(mut, func(c *Config) { c.FsyncDelay = delay })...)
	leader, others = make(chan error, 1), make(chan error, n)
	go func() { _, err := appendOne(l, []byte("leader")); leader <- err }()
	<-entered
	for i := 0; i < n; i++ {
		go func(i int) { _, err := appendOne(l, []byte(fmt.Sprintf("held-%03d", i))); others <- err }(i)
	}
	waitUntil(t, "every appender to write behind the held fsync", func() bool { return l.LastSeq() == uint64(n+1) })
	select {
	case err := <-others:
		t.Fatalf("an append returned (%v) while the fsync that covers it was held", err)
	case err := <-leader:
		t.Fatalf("the leader returned (%v) before its fsync", err)
	case <-time.After(20 * time.Millisecond):
	}
	return l, leader, others, release
}

// closingForTest reports whether Close or Crash has begun.
func (l *Log) closingForTest() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closing
}

// TestLeaderFsyncsWithMutexReleased holds the leader's fsync: 16 more
// appenders still write (the mutex is free during the fsync), none of
// them returns before a covering fsync, and once the fsync is released
// every call returns within at most two more fsyncs.
func TestLeaderFsyncsWithMutexReleased(t *testing.T) {
	dir := t.TempDir()
	const n = 16
	l, leader, others, release := heldLeader(t, dir, n)
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-others; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Counters().Fsyncs; got > 3 {
		t.Errorf("17 appends behind one held fsync took %d fsyncs, want the held one and at most two more", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openSync(t, dir)
	defer l2.Close()
	if seqs, _ := replayAll(t, l2, 0); len(seqs) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(seqs), n+1)
	}
}

// TestCloseWaitsOutLeader closes the log while the leader's fsync is
// held: Close returns only after the leader finishes, its final fsync
// covers every written append, and an append arriving once Close has
// begun is refused.
func TestCloseWaitsOutLeader(t *testing.T) {
	dir := t.TempDir()
	const n = 16
	l, leader, others, release := heldLeader(t, dir, n)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	waitUntil(t, "Close to begin", l.closingForTest)
	if _, err := appendOne(l, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("append after Close began = %v, want ErrClosed", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) under the leader's fsync", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-others; err != nil {
			t.Errorf("append written before Close = %v, want nil", err)
		}
	}
	l2 := openSync(t, dir)
	defer l2.Close()
	if seqs, _ := replayAll(t, l2, 0); len(seqs) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(seqs), n+1)
	}
}

// TestCrashWaitsOutLeader crashes the log while the leader's fsync is
// held: Crash returns only after the leader finishes, the appends that
// fsync did not cover get ErrClosed, and every append that returned nil
// replays.
func TestCrashWaitsOutLeader(t *testing.T) {
	dir := t.TempDir()
	const n = 16
	l, leader, others, release := heldLeader(t, dir, n)
	crashed := make(chan error, 1)
	go func() { crashed <- l.Crash() }()
	waitUntil(t, "Crash to begin", l.closingForTest)
	select {
	case err := <-crashed:
		t.Fatalf("Crash returned (%v) under the leader's fsync", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-crashed; err != nil {
		t.Fatal(err)
	}
	if err := <-leader; err != nil {
		t.Fatalf("the leader's own append = %v, want nil: its fsync completed", err)
	}
	for i := 0; i < n; i++ {
		if err := <-others; !errors.Is(err, ErrClosed) {
			t.Errorf("append the held fsync did not cover = %v, want ErrClosed", err)
		}
	}
	l2 := openSync(t, dir)
	defer l2.Close()
	seqs, payloads := replayAll(t, l2, 0)
	if len(seqs) == 0 || seqs[0] != 1 || string(payloads[0]) != "leader" {
		t.Fatalf("the acknowledged append did not replay: seqs %v", seqs)
	}
}

// TestRotationWaitsOutLeader crosses the segment threshold twice while
// the leader's fsync is held: both crossing appenders wait, the log
// rotates exactly once, and replay runs contiguously across the two
// segments.
func TestRotationWaitsOutLeader(t *testing.T) {
	dir := t.TempDir()
	// Frames are 16 + 8 bytes: the leader's 22-byte frame stays under the
	// 60-byte threshold, the third frame crosses it and so does the
	// fourth, written into the same segment while the first crossing
	// appender waits.
	l, leader, others, release := heldLeader(t, dir, 3, func(c *Config) { c.SegmentBytes = 60 })
	if got := l.Counters().Segments; got != 1 {
		t.Fatalf("rotated to %d segments under the leader's fsync", got)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := <-others; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Counters().Segments; got != 2 {
		t.Errorf("two crossing appends left %d segments, want exactly one rotation (2)", got)
	}
	if seq, err := appendOne(l, []byte("after")); err != nil || seq != 5 {
		t.Fatalf("append after rotation = (%d, %v), want (5, nil)", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openSync(t, dir)
	defer l2.Close()
	seqs, _ := replayAll(t, l2, 0)
	if len(seqs) != 5 || seqs[4] != 5 {
		t.Fatalf("replay across the rotation = %v, want 1..5", seqs)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := openSync(t, t.TempDir())
	appendN(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(l, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestStartSeqContinuesAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	// A snapshot covered seqs 1..100; the log starts empty but must not
	// reuse them.
	l := openSync(t, dir, func(c *Config) { c.StartSeq = 100 })
	if seq, err := appendOne(l, []byte("first-after-snapshot")); err != nil || seq != 101 {
		t.Fatalf("first append with StartSeq 100 = (%d, %v), want (101, nil)", seq, err)
	}
	l.Close()

	// The on-disk tail outranks a stale StartSeq on reopen.
	l2 := openSync(t, dir, func(c *Config) { c.StartSeq = 50 })
	defer l2.Close()
	if seq, err := appendOne(l2, []byte("second")); err != nil || seq != 102 {
		t.Fatalf("append after reopen with stale StartSeq = (%d, %v), want (102, nil)", seq, err)
	}
}

func TestSegmentNameRoundtrip(t *testing.T) {
	for _, seq := range []uint64{1, 255, 1 << 40, ^uint64(0)} {
		name := segmentName(seq)
		got, ok := parseSegmentName(name)
		if !ok || got != seq {
			t.Errorf("segment name %q parsed to (%d, %v), want %d", name, got, ok, seq)
		}
	}
	for _, bad := range []string{"wal-123.seg", "snap-0000000000000001.snap", "wal-00000000000000zz.seg", "wal-0000000000000001.tmp"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Errorf("parseSegmentName accepted %q", bad)
		}
	}
	if filepath.Base(segmentName(1)) != "wal-0000000000000001.seg" {
		t.Errorf("segment naming drifted: %s", segmentName(1))
	}
}
