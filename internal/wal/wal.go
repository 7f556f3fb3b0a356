// Package wal is the crowd store's durable-persistence subsystem: an
// append-only segmented write-ahead log plus versioned snapshots, giving
// crowdd state that survives crashes and deploys.
//
// The paper's §VI crowdsourced-binning study only works if submissions
// accumulate over long horizons — bins sharpen as more same-model devices
// report — so the corpus must outlive any single process. The discipline
// is the classic one: every committed record is appended to the log and
// fsynced *before* it becomes visible in the store; a background
// snapshotter periodically checkpoints the whole store and deletes the
// log segments the previous snapshot covers, keeping that one as the
// fallback; boot restores the newest valid snapshot (setting damaged
// newer ones aside, so retention only ever counts valid snapshots) and
// replays the log tail after it, refusing to boot over a gap in the log
// or a snapshot in a format version this build does not read.
//
// Three layers live here:
//
//   - frame.go — the record framing (length + CRC-32C + seq), the
//     fuzzed decode surface.
//   - Log — the segmented append log: rotation at a size threshold,
//     torn-tail truncation on open, and a self-clocked group commit —
//     the first appender not yet durable fsyncs for everyone written so
//     far, so the load, not a timer, sets how many records share an
//     fsync.
//   - Persister — the store-facing orchestration: the group commit
//     point (append, then store), snapshot + compaction, recovery on
//     open.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"accubench/internal/obs"
)

// ErrClosed is returned by AppendBatch after Close (or Crash).
var ErrClosed = errors.New("wal: log closed")

// DefaultSegmentBytes is the rotation threshold for Config.SegmentBytes
// <= 0: once the active segment reaches it, the log rotates to a fresh
// segment file (the unit of compaction).
const DefaultSegmentBytes = 4 << 20

// DefaultFlushEvery was the window of the group-commit ticker the log
// no longer has; nothing reads it.
//
// Deprecated: the group commit is self-clocked. Only bench/ still names
// it, and it goes with the bench/ leftovers of ROADMAP item 2.
const DefaultFlushEvery = 2 * time.Millisecond

// Config parameterizes a Log.
type Config struct {
	// Dir is the directory holding the segment files. Required.
	Dir string
	// SegmentBytes is the rotation threshold (DefaultSegmentBytes if
	// <= 0).
	SegmentBytes int64
	// StartSeq is the highest sequence number already durable elsewhere
	// (the covering snapshot). When the directory holds no segments, the
	// first append is assigned StartSeq+1.
	StartSeq uint64
	// Obs, when non-nil, registers the log's latency instrumentation:
	// a wal_fsync_seconds histogram (how long each fsync takes — the
	// durability tax every commit pays) and a wal_fsync_batch histogram
	// (how many appends each fsync covered — the group-commit
	// amortization factor).
	Obs *obs.Registry
	// FsyncDelay, when non-nil, runs immediately before every fsync — the
	// slow-disk injection seam used by internal/chaos. A sleeping
	// FsyncDelay stalls every commit exactly the way a saturated or
	// degraded disk does: an appender returns only after the delayed
	// fsync covering its record. A group-commit leader runs it with the
	// log's mutex released, so appenders keep writing during the stall as
	// they would into a real slow disk.
	FsyncDelay func()
}

// Counters is a snapshot of the log's activity counters.
type Counters struct {
	// Appends counts records appended this session.
	Appends uint64
	// Fsyncs counts fsync calls (an idle append costs one; under load
	// one fsync covers every append written during the previous one).
	Fsyncs uint64
	// Bytes counts appended bytes, framing included.
	Bytes uint64
	// Segments is the current segment-file count.
	Segments int
	// LastSeq is the highest sequence number ever appended (or inherited
	// from StartSeq / the on-disk tail).
	LastSeq uint64
	// TruncatedBytes is how many torn-tail bytes Open cut from the final
	// segment.
	TruncatedBytes int64
}

// segment is one on-disk log file; its name carries the sequence number
// of its first record, so coverage is derivable without reading it.
type segment struct {
	path  string
	first uint64
}

// Log is the segmented append-only record log. Open it, Replay the tail,
// then AppendBatch; all methods are safe for concurrent use.
type Log struct {
	cfg Config

	mu        sync.Mutex
	commit    *sync.Cond // broadcast when syncedSeq, syncing, err or closed change
	f         *os.File   // active segment
	size      int64      // active segment size
	segments  []segment  // ascending by first seq; last is active
	lastSeq   uint64     // highest appended seq
	syncedSeq uint64     // highest fsynced seq
	syncing   bool       // a group-commit leader's fsync is in flight
	err       error      // sticky I/O error
	closing   bool       // Close or Crash began: no new appends, no new leaders
	closed    bool       // the active segment is closed

	appends, fsyncs, bytes uint64
	truncated              int64

	// fsyncDur and fsyncBatch are nil unless Config.Obs was set.
	fsyncDur   *obs.Histogram
	fsyncBatch *obs.Histogram
}

// segmentName renders the canonical file name for a segment whose first
// record carries seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.seg", seq) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	hex, ok = strings.CutSuffix(hex, ".seg")
	if !ok || len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the directory's segment files ascending by first
// sequence number. Files that don't match the naming scheme are ignored.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := 1; i < len(segs); i++ {
		if segs[i].first <= segs[i-1].first {
			return nil, fmt.Errorf("wal: segments %s and %s overlap",
				filepath.Base(segs[i-1].path), filepath.Base(segs[i].path))
		}
	}
	return segs, nil
}

// scanFrames walks data frame by frame and returns the offset just past
// the last valid frame plus that frame's sequence number (0 when none).
func scanFrames(data []byte) (validLen int, lastSeq uint64) {
	off := 0
	for off < len(data) {
		seq, _, n, err := DecodeFrame(data[off:])
		if err != nil {
			break
		}
		off += n
		lastSeq = seq
	}
	return off, lastSeq
}

// OpenLog opens (or creates) the log in cfg.Dir. The final segment is
// scanned for a torn tail — a crash mid-write leaves a half-frame or a
// bit-flipped block — and truncated back to the last valid frame, so a
// dirty shutdown never aborts boot. Appends resume after the highest
// surviving sequence number (or cfg.StartSeq when the log is empty).
func OpenLog(cfg Config) (*Log, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: config needs a directory")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{cfg: cfg, lastSeq: cfg.StartSeq}
	l.commit = sync.NewCond(&l.mu)
	if cfg.Obs != nil {
		l.fsyncDur = cfg.Obs.Histogram("wal_fsync_seconds",
			"WAL fsync latency — the durability tax every commit pays", obs.DurationBuckets)
		l.fsyncBatch = cfg.Obs.Histogram("wal_fsync_batch",
			"appends covered per fsync — the group-commit amortization factor", obs.SizeBuckets)
	}
	if len(segs) == 0 {
		if err := l.openSegmentLocked(cfg.StartSeq + 1); err != nil {
			return nil, err
		}
	} else {
		l.segments = segs
		active := segs[len(segs)-1]
		data, err := os.ReadFile(active.path)
		if err != nil {
			return nil, err
		}
		validLen, tailSeq := scanFrames(data)
		if tailSeq == 0 {
			tailSeq = active.first - 1
		}
		if validLen < len(data) {
			l.truncated = int64(len(data) - validLen)
			if err := os.Truncate(active.path, int64(validLen)); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", active.path, err)
			}
		}
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = f
		l.size = int64(validLen)
		if tailSeq > l.lastSeq {
			l.lastSeq = tailSeq
		}
	}
	l.syncedSeq = l.lastSeq
	return l, nil
}

// openSegmentLocked creates and activates the segment whose first record
// will carry seq, then fsyncs the directory so the new name survives a
// crash.
func (l *Log) openSegmentLocked(first uint64) error {
	path := filepath.Join(l.cfg.Dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.size = 0
	l.segments = append(l.segments, segment{path: path, first: first})
	return syncDir(l.cfg.Dir)
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// AppendBatch writes a group of records as consecutive frames in one
// write and blocks until all of them are durable — the log's only write
// path, and every commit's group-commit point. It returns the sequence
// number assigned to the first record; the rest follow consecutively.
//
// The group commit is self-clocked. After writing its frames under the
// mutex, the first appender whose records are not yet durable and that
// finds no fsync in flight becomes the leader: it fsyncs everything
// written so far with the mutex released. Appenders that arrive during
// that fsync write their frames and wait, and the next leader covers
// them. An idle append therefore costs one fsync, and under load a group
// is whatever arrived during the previous fsync.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	size := 0
	for _, p := range payloads {
		if len(p) > MaxPayload {
			return 0, fmt.Errorf("wal: payload %d bytes exceeds the %d-byte frame limit", len(p), MaxPayload)
		}
		size += FrameHeaderSize + len(p)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closing {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	first := l.lastSeq + 1
	buf := make([]byte, 0, size)
	for i, p := range payloads {
		buf = AppendFrame(buf, first+uint64(i), p)
	}
	if _, err := l.f.Write(buf); err != nil {
		l.failLocked(err)
		return 0, err
	}
	last := first + uint64(len(payloads)) - 1
	l.lastSeq = last
	l.size += int64(len(buf))
	l.appends += uint64(len(payloads))
	l.bytes += uint64(len(buf))
	if l.size >= l.cfg.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
			return 0, err
		}
	}
	for l.syncedSeq < last && l.err == nil && !l.closed {
		if l.syncing || l.closing {
			l.commit.Wait()
			continue
		}
		l.leadSyncLocked()
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.syncedSeq < last {
		return 0, ErrClosed
	}
	return first, nil
}

// leadSyncLocked is the group-commit leader's step: it fsyncs the active
// segment through everything written so far with l.mu released, then
// publishes the new durable point and wakes the appenders it covers. A
// failed fsync is sticky, so no waiter is acknowledged after it.
func (l *Log) leadSyncLocked() {
	l.syncing = true
	target, f := l.lastSeq, l.f
	l.mu.Unlock()
	dur, err := l.fsync(f)
	l.mu.Lock()
	l.syncing = false
	l.syncedLocked(target, dur, err)
}

// waitLeaderLocked waits out an in-flight leader's fsync, so the caller
// may sync or close the active segment.
func (l *Log) waitLeaderLocked() {
	for l.syncing {
		l.commit.Wait()
	}
}

// syncLocked fsyncs the active segment with l.mu held, keeping appenders
// out of a file that rotation or Close is about to retire. The caller
// has waited out any leader.
func (l *Log) syncLocked() error {
	dur, err := l.fsync(l.f)
	return l.syncedLocked(l.lastSeq, dur, err)
}

// fsync runs the slow-disk seam and one fsync of f, timing the fsync.
func (l *Log) fsync(f *os.File) (time.Duration, error) {
	if l.cfg.FsyncDelay != nil {
		l.cfg.FsyncDelay()
	}
	t0 := time.Now()
	err := f.Sync()
	return time.Since(t0), err
}

// syncedLocked records the outcome of an fsync that covered the log
// through target and wakes every waiter. Nothing else moves syncedSeq
// while a leader's fsync is in flight, so the records between it and
// target are the ones this fsync made durable.
func (l *Log) syncedLocked(target uint64, dur time.Duration, err error) error {
	if err != nil {
		l.failLocked(err)
		return err
	}
	l.fsyncs++
	if l.fsyncDur != nil {
		l.fsyncDur.Observe(dur.Seconds())
		if target > l.syncedSeq {
			l.fsyncBatch.Observe(float64(target - l.syncedSeq))
		}
	}
	l.syncedSeq = max(l.syncedSeq, target)
	l.commit.Broadcast()
	return nil
}

// rotateLocked retires the active segment (fsync + close) and opens the
// next one. It first waits out an in-flight leader; meanwhile another
// appender may have rotated, or Close may have begun, so it rotates only
// if the active segment is still over the threshold and the log open.
func (l *Log) rotateLocked() error {
	l.waitLeaderLocked()
	if l.closing || l.err != nil || l.size < l.cfg.SegmentBytes {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegmentLocked(l.lastSeq + 1)
}

// failLocked records a sticky I/O error and wakes every waiter.
func (l *Log) failLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.commit.Broadcast()
}

// Replay streams every record with sequence number greater than `after`
// to fn, in order, across all segments. Call it after Open and before
// the first AppendBatch. Corruption in a non-final segment is an error
// (the final segment's tail was already truncated by Open), and so is a
// gap: the records replayed must run after+1, after+2, … with none
// missing, or acknowledged records would vanish without a trace. fn
// returning an error stops the replay.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	prev, next := uint64(0), after+1
	for _, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return err
		}
		off := 0
		for off < len(data) {
			seq, payload, n, err := DecodeFrame(data[off:])
			if err != nil {
				return fmt.Errorf("wal: %s corrupt at offset %d: %w", filepath.Base(sg.path), off, err)
			}
			off += n
			if seq <= prev {
				return fmt.Errorf("wal: %s: sequence %d after %d — log out of order", filepath.Base(sg.path), seq, prev)
			}
			prev = seq
			if seq <= after {
				continue
			}
			if seq != next {
				return fmt.Errorf("wal: records %d through %d missing from the log (%s resumes at %d)",
					next, seq-1, filepath.Base(sg.path), seq)
			}
			next++
			if err := fn(seq, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// CompactThrough deletes every segment whose records are all covered by a
// snapshot through seq. The active segment is never deleted, so the log
// always has somewhere to append. Returns how many segments were removed.
func (l *Log) CompactThrough(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) > 1 {
		// segments[0] covers [first, segments[1].first-1]; it is fully
		// covered by the snapshot iff that upper bound is <= seq.
		if l.segments[1].first > seq+1 {
			break
		}
		if err := os.Remove(l.segments[0].path); err != nil {
			return removed, err
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.cfg.Dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// LastSeq returns the highest sequence number appended (or inherited).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Counters returns a snapshot of the log's activity counters.
func (l *Log) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Counters{
		Appends:        l.appends,
		Fsyncs:         l.fsyncs,
		Bytes:          l.bytes,
		Segments:       len(l.segments),
		LastSeq:        l.lastSeq,
		TruncatedBytes: l.truncated,
	}
}

// Close flushes outstanding appends and closes the log. Appends that
// arrive once Close has begun get ErrClosed; appends already written
// return once Close's final fsync covers them. Safe to call more than
// once.
func (l *Log) Close() error { return l.close(true) }

// Crash abandons the log without the final flush — the test hook that
// simulates a hard kill. Records whose AppendBatch already returned are
// on disk (AppendBatch never returns before its fsync); an append still
// waiting for its fsync gets ErrClosed, exactly as a real crash would
// lose it.
func (l *Log) Crash() error { return l.close(false) }

// close waits out an in-flight leader — the file must not close under
// its fsync — then optionally flushes and closes the active segment.
func (l *Log) close(flush bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closing {
		return nil
	}
	l.closing = true
	l.waitLeaderLocked()
	if flush && l.err == nil && l.syncedSeq < l.lastSeq {
		l.syncLocked()
	}
	err := l.f.Close()
	l.closed = true
	l.commit.Broadcast()
	if l.err != nil && err == nil {
		err = l.err
	}
	return err
}
