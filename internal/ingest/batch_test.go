package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"accubench/internal/store"
)

// batchSub builds a decoded submission with a synthetic cooldown toward
// amb (see payload for the JSON twin).
func batchSub(device string, score, amb float64) Submission {
	sub := Submission{Device: device, Model: "Nexus 5", Score: score}
	delta := 70 - amb
	for i := 0; i < 40; i++ {
		sub.Cooldown = append(sub.Cooldown, CooldownPoint{
			AtSeconds: float64(i+1) * 5,
			TempC:     amb + delta*math.Pow(0.93, float64(i+1)),
		})
	}
	return sub
}

// recordingBatchCommitter is a Committer that counts its calls and
// optionally fails, over a backing store.
type recordingBatchCommitter struct {
	st          *store.Store
	mu          sync.Mutex
	batches     int
	batchSizes  []int
	failBatches bool
}

func (c *recordingBatchCommitter) CommitBatch(recs []*store.Record) error {
	c.mu.Lock()
	c.batches++
	c.batchSizes = append(c.batchSizes, len(recs))
	fail := c.failBatches
	c.mu.Unlock()
	if fail {
		return errors.New("injected batch-commit failure")
	}
	for _, r := range recs {
		seq, err := c.st.Put(*r)
		if err != nil {
			return err
		}
		r.Seq = seq
	}
	return nil
}

// TestSubmitBatchEndToEnd drives a mixed batch — accepts, a reject, an
// invalid entry — through the inline batch path and asserts the result
// accounting, the store contents, and the counter conservation laws
// shared with the queued JSON path.
func TestSubmitBatchEndToEnd(t *testing.T) {
	st := store.New(4)
	p := newPipeline(t, st)
	p.Start(context.Background())

	subs := []Submission{
		batchSub("b-accept-1", 1000, 24),
		batchSub("b-accept-2", 1100, 25),
		batchSub("b-reject-hot", 900, 38),
		{Device: "", Model: "Nexus 5", Score: 5}, // fails validation
	}
	res, err := p.SubmitBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalid != 1 || res.Failed != 0 || len(res.Records) != 3 {
		t.Fatalf("result = %d records, %d invalid, %d failed; want 3/1/0", len(res.Records), res.Invalid, res.Failed)
	}
	if len(res.Records)+res.Invalid+res.Failed != len(subs) {
		t.Errorf("result does not account for every submission")
	}
	for i, r := range res.Records {
		if r.Seq == 0 {
			t.Errorf("record %d has no sequence number", i)
		}
	}
	p.Close()

	c := p.Counters()
	if c.Received != 4 || c.DecodeErrors != 1 || c.Stored != 3 || c.Accepted != 2 || c.Rejected != 1 {
		t.Errorf("counters = %+v, want received 4, decode errors 1, stored 3, accepted 2, rejected 1", c)
	}
	if c.Received != c.DecodeErrors+c.Aborted+c.Stored+c.WALFailed {
		t.Errorf("flow invariant violated: %+v", c)
	}
	if c.Evaluated+c.EstimateFailures != c.Decoded {
		t.Errorf("evaluate invariant violated: %+v", c)
	}
	if st.Len() != 3 || st.AcceptedLen() != 2 {
		t.Errorf("store has %d/%d records, want 3/2", st.Len(), st.AcceptedLen())
	}
}

// TestSubmitBatchGroupCommit asserts the batch path's group commit: one
// CommitBatch call for the whole batch, and wal_appended advancing by the
// batch size.
func TestSubmitBatchGroupCommit(t *testing.T) {
	st := store.New(4)
	bc := &recordingBatchCommitter{st: st}
	p := newPipeline(t, st, func(c *Config) { c.WAL = bc })
	p.Start(context.Background())
	defer p.Close()

	subs := make([]Submission, 8)
	for i := range subs {
		subs[i] = batchSub(fmt.Sprintf("gc-%d", i), 1000+float64(i), 24)
	}
	res, err := p.SubmitBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(subs) {
		t.Fatalf("committed %d of %d", len(res.Records), len(subs))
	}
	if bc.batches != 1 || bc.batchSizes[0] != len(subs) {
		t.Errorf("group commit = %d batches (%v), want one batch of %d",
			bc.batches, bc.batchSizes, len(subs))
	}
	if c := p.Counters(); c.WALAppended != uint64(len(subs)) || c.WALFailed != 0 {
		t.Errorf("wal counters = appended %d, failed %d; want %d, 0", c.WALAppended, c.WALFailed, len(subs))
	}
}

// TestSubmitBatchCommitFailure locks the failure accounting: a failed
// group commit drops the whole batch as retryable, counted under
// wal_failed, never silently.
func TestSubmitBatchCommitFailure(t *testing.T) {
	st := store.New(4)
	bc := &recordingBatchCommitter{st: st, failBatches: true}
	p := newPipeline(t, st, func(c *Config) { c.WAL = bc })
	p.Start(context.Background())
	defer p.Close()

	subs := []Submission{batchSub("cf-1", 1000, 24), batchSub("cf-2", 1010, 24)}
	res, err := p.SubmitBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.Failed != 2 {
		t.Fatalf("result = %d records, %d failed; want 0/2", len(res.Records), res.Failed)
	}
	c := p.Counters()
	if c.WALFailed != 2 || c.Stored != 0 {
		t.Errorf("counters = %+v, want wal failed 2, stored 0", c)
	}
	if c.Received != c.DecodeErrors+c.Aborted+c.Stored+c.WALFailed {
		t.Errorf("flow invariant violated: %+v", c)
	}
	if st.Len() != 0 {
		t.Errorf("failed batch left %d records in the store", st.Len())
	}
}

// TestSubmitBatchClosed locks the shutdown edge: a closed pipeline
// refuses batches with ErrClosed and an empty result.
func TestSubmitBatchClosed(t *testing.T) {
	st := store.New(4)
	p := newPipeline(t, st)
	p.Start(context.Background())
	p.Close()
	if _, err := p.SubmitBatch(context.Background(), []Submission{batchSub("late", 1000, 24)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatch after Close = %v, want ErrClosed", err)
	}
}
