package ingest

import (
	"context"
	"time"

	"accubench/internal/store"
)

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
// validation, evaluation and one group commit inline on the caller's
// goroutine — the binary streaming ingest path. Nothing is enqueued: the
// stream handler is its own backpressure (it reads the next frame only
// after this returns). The queued JSON uploads reach the store through
// the same commit, so the conservation laws (received = decode_errors +
// aborted + stored + wal_failed, stored = accepted + rejected =
// wal_appended) hold across every front door.
func (p *Pipeline) SubmitBatch(ctx context.Context, subs []Submission) (BatchResult, error) {
	var res BatchResult
	if len(subs) == 0 {
		return res, nil
	}
	if !p.admit() {
		return res, ErrClosed
	}
	defer p.submitters.Done()

	p.ctr.received.Add(uint64(len(subs)))

	// Decode stage: the frames arrive pre-parsed, so this is just
	// validation; malformed entries drop here like JSON decode errors.
	t0 := time.Now()
	valid := make([]Submission, 0, len(subs))
	for i := range subs {
		if err := subs[i].Validate(); err != nil {
			p.ctr.decodeErrors.Inc()
			res.Invalid++
			continue
		}
		p.ctr.decoded.Inc()
		valid = append(valid, subs[i])
	}
	p.decodeDur.Observe(time.Since(t0).Seconds())
	err := p.commit(ctx, valid, nil, &res)
	return res, err
}
