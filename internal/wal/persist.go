package wal

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accubench/internal/obs"
	"accubench/internal/store"
)

// DefaultSnapshotEvery is how many commits accumulate between background
// snapshots when PersistConfig.SnapshotEvery <= 0.
const DefaultSnapshotEvery = 4096

// snapshotsKept is how many snapshot generations stay on disk: the
// newest, plus one fallback in case the newest is unreadable. The log is
// compacted only through the fallback, so it replays exactly too.
const snapshotsKept = 2

// PersistConfig parameterizes a Persister.
type PersistConfig struct {
	// Dir is the data directory (segments + snapshots). Required.
	Dir string
	// SegmentBytes is the log's rotation threshold (DefaultSegmentBytes
	// if <= 0).
	SegmentBytes int64
	// FlushEvery is ignored: the log's group commit is self-clocked.
	//
	// Deprecated: only bench/ still sets it, and it goes with the bench/
	// leftovers of ROADMAP item 2.
	FlushEvery time.Duration
	// SnapshotEvery is how many commits trigger a background snapshot
	// (DefaultSnapshotEvery if <= 0).
	SnapshotEvery int
	// Obs, when non-nil, registers the log's fsync latency and
	// group-commit batch-size histograms (see Config.Obs).
	Obs *obs.Registry
	// FsyncDelay is the slow-disk injection seam, forwarded to the log
	// (see Config.FsyncDelay).
	FsyncDelay func()
}

// Recovery reports what Open found and rebuilt from the data directory.
type Recovery struct {
	// SnapshotSeq is the sequence number the restored snapshot covered
	// (0 when no snapshot existed).
	SnapshotSeq uint64
	// SnapshotRecords is how many records the snapshot held.
	SnapshotRecords int
	// Replayed is how many log-tail records were replayed through the
	// store after the snapshot.
	Replayed int
	// Restored is the total record count rebuilt (snapshot + replay).
	Restored int
	// RestoredAccepted is how many restored records carried an accepted
	// verdict.
	RestoredAccepted int
	// TruncatedBytes is how many torn-tail bytes were cut from the log's
	// final segment — nonzero after a crash mid-write.
	TruncatedBytes int64
	// LastSeq is the sequence number the next commit follows.
	LastSeq uint64
}

// PersistCounters is a snapshot of the persister's activity.
type PersistCounters struct {
	// Log is the underlying segmented log's counters.
	Log Counters
	// Snapshots counts snapshots cut this session.
	Snapshots uint64
	// SnapshotFailures counts background snapshot attempts that failed.
	SnapshotFailures uint64
	// LastSnapshotSeq is the sequence number the newest snapshot covers.
	LastSnapshotSeq uint64
}

// Persister ties the segmented log to the sharded store: CommitBatch is
// the crowd stack's durability point (append + fsync, then store), a
// background snapshotter checkpoints the store and compacts covered
// segments, and Open performs crash recovery. It implements
// ingest.Committer.
type Persister struct {
	cfg PersistConfig
	st  *store.Store
	log *Log

	// commitMu orders commits against snapshots: commits hold the read
	// side across append+insert, the snapshotter takes the write side so
	// the store it serializes reflects exactly the log it covers — no
	// in-flight record can fall between a snapshot and the compaction
	// that trusts it.
	commitMu sync.RWMutex

	sinceSnap    atomic.Uint64
	snapshots    atomic.Uint64
	snapFailures atomic.Uint64
	lastSnapSeq  atomic.Uint64

	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Open opens the data directory, restores the newest valid snapshot into
// st, replays the log tail beyond it, and returns the persister ready for
// commits, along with a report of what recovery found. st must be empty
// and not yet shared.
func Open(cfg PersistConfig, st *store.Store) (*Persister, Recovery, error) {
	var rec Recovery
	if cfg.Dir == "" {
		return nil, rec, fmt.Errorf("wal: persist config needs a data directory")
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}

	snapSeq, count, payload, ok, err := LatestSnapshot(cfg.Dir)
	if err != nil {
		return nil, rec, err
	}
	if ok {
		var recs []store.Record
		if err := json.Unmarshal(payload, &recs); err != nil {
			return nil, rec, fmt.Errorf("wal: snapshot payload undecodable: %w", err)
		}
		if uint64(len(recs)) != count {
			return nil, rec, fmt.Errorf("wal: snapshot holds %d records, header says %d", len(recs), count)
		}
		if err := st.Restore(recs); err != nil {
			return nil, rec, err
		}
		rec.SnapshotSeq = snapSeq
		rec.SnapshotRecords = len(recs)
		for _, r := range recs {
			if r.Accepted {
				rec.RestoredAccepted++
			}
		}
	}

	log, err := OpenLog(Config{
		Dir:          cfg.Dir,
		SegmentBytes: cfg.SegmentBytes,
		StartSeq:     snapSeq,
		Obs:          cfg.Obs,
		FsyncDelay:   cfg.FsyncDelay,
	})
	if err != nil {
		return nil, rec, err
	}
	replayErr := log.Replay(snapSeq, func(seq uint64, payload []byte) error {
		var r store.Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return fmt.Errorf("wal: record %d undecodable: %w", seq, err)
		}
		r.Seq = seq
		if err := st.PutSeq(r); err != nil {
			return err
		}
		rec.Replayed++
		if r.Accepted {
			rec.RestoredAccepted++
		}
		return nil
	})
	if replayErr != nil {
		log.Close()
		return nil, rec, replayErr
	}
	rec.Restored = rec.SnapshotRecords + rec.Replayed
	rec.TruncatedBytes = log.Counters().TruncatedBytes
	rec.LastSeq = log.LastSeq()

	p := &Persister{
		cfg:  cfg,
		st:   st,
		log:  log,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	p.lastSnapSeq.Store(snapSeq)
	go p.snapshotLoop()
	return p, rec, nil
}

// Commit commits one record: a batch of one through CommitBatch. The
// record's Seq field is set on return.
func (p *Persister) Commit(r *store.Record) (uint64, error) {
	if err := p.CommitBatch([]*store.Record{r}); err != nil {
		return 0, err
	}
	return r.Seq, nil
}

// CommitBatch is the durability point: every record is marshaled up
// front, the batch is appended to the log as consecutive frames in a
// single durable write (blocking until fsynced — group-committed with
// concurrent callers), the records' sequence numbers are assigned from
// the append, and only then does the store insert take one lock pass
// per shard (PutSeqBatch). A record is never visible without being
// durable. All-or-nothing on the log side: if the append fails, no
// record of the batch was stored. Each record's Seq field is set on
// return. It implements ingest.Committer.
func (p *Persister) CommitBatch(recs []*store.Record) error {
	if len(recs) == 0 {
		return nil
	}
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			return err
		}
		payloads[i] = payload
	}
	p.commitMu.RLock()
	first, err := p.log.AppendBatch(payloads)
	if err != nil {
		p.commitMu.RUnlock()
		return err
	}
	vals := make([]store.Record, len(recs))
	for i, r := range recs {
		r.Seq = first + uint64(i)
		vals[i] = *r
	}
	perr := p.st.PutSeqBatch(vals)
	p.commitMu.RUnlock()
	if perr != nil {
		// Logged but unstorable — a validation bug upstream; surface it
		// rather than diverging store and log silently.
		return perr
	}
	if p.sinceSnap.Add(uint64(len(recs))) >= uint64(p.cfg.SnapshotEvery) {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// snapshotLoop cuts a snapshot whenever enough commits have accumulated.
func (p *Persister) snapshotLoop() {
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
			if p.sinceSnap.Load() < uint64(p.cfg.SnapshotEvery) {
				continue
			}
			if err := p.Snapshot(); err != nil {
				p.snapFailures.Add(1)
			}
		}
	}
}

// Snapshot serializes the store, writes a checksummed snapshot covering
// the log's current tail, deletes the segments the previous snapshot
// covers and prunes older snapshots. The previous snapshot stays as the
// fallback, so the log keeps every record after it: should the new
// snapshot turn out unreadable, recovery from the fallback is still
// exact. Commits are paused only while the store is copied in memory,
// not while the file is written.
func (p *Persister) Snapshot() error {
	p.commitMu.Lock()
	recs := p.st.Snapshot()
	seq := p.log.LastSeq()
	p.commitMu.Unlock()
	p.sinceSnap.Store(0)
	prev := p.lastSnapSeq.Load()
	if seq == prev {
		return nil // nothing new since the last snapshot
	}
	payload, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	if _, err := WriteSnapshot(p.cfg.Dir, seq, uint64(len(recs)), payload); err != nil {
		return err
	}
	if _, err := p.log.CompactThrough(prev); err != nil {
		return err
	}
	if err := PruneSnapshots(p.cfg.Dir, snapshotsKept); err != nil {
		return err
	}
	p.lastSnapSeq.Store(seq)
	p.snapshots.Add(1)
	return nil
}

// Counters returns a snapshot of the persister's activity counters.
func (p *Persister) Counters() PersistCounters {
	return PersistCounters{
		Log:              p.log.Counters(),
		Snapshots:        p.snapshots.Load(),
		SnapshotFailures: p.snapFailures.Load(),
		LastSnapshotSeq:  p.lastSnapSeq.Load(),
	}
}

// Close stops the snapshot loop, flushes the log, cuts a final snapshot
// covering everything committed, and closes the log — so a clean
// shutdown never needs replay on the next boot. Call it after the ingest
// pipeline has drained.
func (p *Persister) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	err := p.Snapshot()
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the persister without the final flush or snapshot — the
// test hook simulating a hard kill. Every record whose commit returned is
// already durable in the log; recovery must rebuild the rest.
func (p *Persister) Crash() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	p.log.Crash()
}
