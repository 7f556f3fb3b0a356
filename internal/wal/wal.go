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
// fallback; boot restores the newest valid snapshot and replays the log
// tail after it, refusing to boot over a gap in the log or a snapshot in
// a format version this build does not read.
//
// Three layers live here:
//
//   - frame.go — the record framing (length + CRC-32C + seq), the
//     fuzzed decode surface.
//   - Log — the segmented append log: rotation at a size threshold,
//     torn-tail truncation on open, group-commit fsync batching.
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

// DefaultFlushEvery is the group-commit window used by the daemon's
// default flags: appends coalesce into one fsync per window.
const DefaultFlushEvery = 2 * time.Millisecond

// Config parameterizes a Log.
type Config struct {
	// Dir is the directory holding the segment files. Required.
	Dir string
	// SegmentBytes is the rotation threshold (DefaultSegmentBytes if
	// <= 0).
	SegmentBytes int64
	// FlushEvery is the group-commit window: appends from concurrent
	// callers coalesce into one fsync per window, and AppendBatch blocks
	// until the fsync covering its records completes. <= 0 selects
	// synchronous mode — every append fsyncs before returning (tests,
	// strict durability).
	FlushEvery time.Duration
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
	// FsyncDelay, when non-nil, runs immediately before every fsync while
	// the log's mutex is held — the slow-disk injection seam used by
	// internal/chaos. A sleeping FsyncDelay stalls the whole commit path
	// exactly the way a saturated or degraded disk does: appenders block
	// until the delayed fsync covering their record completes.
	FsyncDelay func()
}

// Counters is a snapshot of the log's activity counters.
type Counters struct {
	// Appends counts records appended this session.
	Appends uint64
	// Fsyncs counts fsync calls (group commit batches many appends into
	// one; synchronous mode makes this equal Appends).
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
	commit    *sync.Cond // broadcast when syncedSeq, err or closed change
	f         *os.File   // active segment
	size      int64      // active segment size
	segments  []segment  // ascending by first seq; last is active
	lastSeq   uint64     // highest appended seq
	syncedSeq uint64     // highest fsynced seq
	err       error      // sticky I/O error
	closed    bool

	appends, fsyncs, bytes uint64
	truncated              int64

	// fsyncDur and fsyncBatch are nil unless Config.Obs was set.
	fsyncDur   *obs.Histogram
	fsyncBatch *obs.Histogram

	flushStop chan struct{}
	flushDone chan struct{}
	stopOnce  sync.Once
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
	if cfg.FlushEvery > 0 {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flusher()
	}
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
// path, and every commit's group-commit point. One mutex hold, one file
// write and (in synchronous mode) one fsync cover the whole batch; a
// batch of one writes the same frame a lone record always has. It
// returns the sequence number assigned to the first record; the rest
// follow consecutively.
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
	if l.closed {
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
	switch {
	case l.size >= l.cfg.SegmentBytes:
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
			return 0, err
		}
	case l.cfg.FlushEvery <= 0:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	for l.syncedSeq < last && l.err == nil && !l.closed {
		l.commit.Wait()
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.syncedSeq < last {
		return 0, ErrClosed
	}
	return first, nil
}

// syncLocked fsyncs the active segment and wakes the appenders it made
// durable.
func (l *Log) syncLocked() error {
	batch := l.lastSeq - l.syncedSeq
	if l.cfg.FsyncDelay != nil {
		l.cfg.FsyncDelay()
	}
	var t0 time.Time
	if l.fsyncDur != nil {
		t0 = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		l.failLocked(err)
		return err
	}
	if l.fsyncDur != nil {
		l.fsyncDur.Observe(time.Since(t0).Seconds())
		if batch > 0 {
			l.fsyncBatch.Observe(float64(batch))
		}
	}
	l.fsyncs++
	l.syncedSeq = l.lastSeq
	l.commit.Broadcast()
	return nil
}

// rotateLocked retires the active segment (fsync + close) and opens the
// next one.
func (l *Log) rotateLocked() error {
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

// flusher is the group-commit loop: one fsync per window covering every
// append since the last.
func (l *Log) flusher() {
	defer close(l.flushDone)
	ticker := time.NewTicker(l.cfg.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-ticker.C:
			l.mu.Lock()
			if !l.closed && l.err == nil && l.syncedSeq < l.lastSeq {
				l.syncLocked() // error is sticky; appenders surface it
			}
			l.mu.Unlock()
		}
	}
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

// Close flushes outstanding appends and closes the log. Safe to call more
// than once.
func (l *Log) Close() error { return l.close(true) }

// Crash abandons the log without the final flush — the test hook that
// simulates a hard kill. Records whose AppendBatch already returned are
// on disk (AppendBatch never returns before its fsync); anything
// mid-flight is lost, exactly as a real crash would lose it.
func (l *Log) Crash() error { return l.close(false) }

func (l *Log) close(flush bool) error {
	l.stopOnce.Do(func() {
		if l.flushStop != nil {
			close(l.flushStop)
			<-l.flushDone
		}
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
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
