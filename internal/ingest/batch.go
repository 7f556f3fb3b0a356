package ingest

import (
	"context"
	"time"

	"accubench/internal/store"
)

// BatchCommitter is the group-commit seam SubmitBatch prefers when the
// configured WAL Committer also implements it: the whole batch becomes
// one log append (one fsync) and one store lock pass per shard.
// internal/wal.Persister is the production implementation; a Committer
// without it falls back to per-record commits, keeping SubmitBatch
// correct against any durability layer.
type BatchCommitter interface {
	CommitBatch(recs []*store.Record) error
}

// BatchResult reports what one SubmitBatch call did with its
// submissions. Records + Invalid + Failed always accounts for every
// submission passed in.
type BatchResult struct {
	// Records are the committed records in submission order, sequence
	// numbers assigned. Both verdicts appear here — a rejected
	// submission is still stored (and durable), like the JSON path.
	Records []store.Record
	// Invalid counts submissions dropped at validation — malformed
	// payloads a retry can never fix.
	Invalid int
	// Failed counts submissions dropped because the batch's commit
	// failed — retryable.
	Failed int
}

// SubmitBatch runs a whole batch of already-decoded submissions through
// the evaluate and store stages inline on the caller's goroutine — the
// binary streaming ingest path. Unlike Submit, nothing is enqueued: the
// stream handler is its own backpressure (it reads the next frame only
// after this returns), so the batch skips the channel hops and commits
// through one WAL group append and one store lock pass per shard when
// the configured Committer supports batching.
//
// The per-stage counters advance exactly as if each submission had
// flowed through the staged pipeline, so the conservation laws
// (received = decode_errors + aborted + stored + wal_failed, stored =
// accepted + rejected = wal_appended) hold across either path.
func (p *Pipeline) SubmitBatch(ctx context.Context, subs []Submission) (BatchResult, error) {
	var res BatchResult
	if len(subs) == 0 {
		return res, nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return res, ErrClosed
	}
	p.submitters.Add(1)
	p.mu.Unlock()
	defer p.submitters.Done()

	p.ctr.received.Add(uint64(len(subs)))

	// Decode stage: the frames arrive pre-parsed, so this is just
	// validation; malformed entries drop here like JSON decode errors.
	t0 := time.Now()
	validIdx := make([]int, 0, len(subs))
	for i := range subs {
		if err := subs[i].Validate(); err != nil {
			p.ctr.decodeErrors.Inc()
			res.Invalid++
			continue
		}
		p.ctr.decoded.Inc()
		validIdx = append(validIdx, i)
	}
	p.decodeDur.Observe(time.Since(t0).Seconds())

	// Evaluate stage: ambient estimation + strict filters per entry.
	t0 = time.Now()
	recs := make([]store.Record, 0, len(validIdx))
	for _, i := range validIdx {
		recs = append(recs, p.evaluate(subs[i]))
	}
	p.filterDur.Observe(time.Since(t0).Seconds())
	if len(recs) == 0 {
		return res, nil
	}

	// A hard shutdown or expired deadline before the commit drops the
	// batch's survivors, counted — never silently.
	if p.aborting() {
		p.ctr.aborted.Add(uint64(len(recs)))
		res.Failed = len(recs)
		return res, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		p.ctr.aborted.Add(uint64(len(recs)))
		res.Failed = len(recs)
		return res, err
	}

	// Store stage: group-commit the whole batch when the WAL supports
	// it, fall back per record otherwise.
	t0 = time.Now()
	switch wal := p.cfg.WAL.(type) {
	case nil:
		for i := range recs {
			seq, err := p.cfg.Store.Put(recs[i])
			if err != nil {
				// Validated above; a store rejection is a bug, but never
				// lose count of the submission.
				p.ctr.aborted.Inc()
				res.Failed++
				continue
			}
			recs[i].Seq = seq
			res.Records = append(res.Records, recs[i])
		}
	case BatchCommitter:
		ptrs := make([]*store.Record, len(recs))
		for i := range recs {
			ptrs[i] = &recs[i]
		}
		if err := wal.CommitBatch(ptrs); err != nil {
			p.ctr.walFailed.Add(uint64(len(recs)))
			res.Failed += len(recs)
			p.walDur.Observe(time.Since(t0).Seconds())
			return res, nil
		}
		p.ctr.walAppended.Add(uint64(len(recs)))
		p.walDur.Observe(time.Since(t0).Seconds())
		res.Records = recs
	default:
		for i := range recs {
			if _, err := p.cfg.WAL.Commit(&recs[i]); err != nil {
				p.ctr.walFailed.Inc()
				res.Failed++
				continue
			}
			p.ctr.walAppended.Inc()
			res.Records = append(res.Records, recs[i])
		}
		p.walDur.Observe(time.Since(t0).Seconds())
	}

	t0 = time.Now()
	for i := range res.Records {
		if res.Records[i].Accepted {
			p.ctr.accepted.Inc()
		} else {
			p.ctr.rejected.Inc()
		}
	}
	p.ctr.stored.Add(uint64(len(res.Records)))
	p.storeDur.Observe(time.Since(t0).Seconds())
	return res, nil
}
