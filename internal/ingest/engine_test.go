package ingest_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/ingest"
	"accubench/internal/store"
	"accubench/internal/testkit"
	"accubench/internal/wal"
)

// blockingCommitter is a Committer whose CommitBatch announces itself on
// entered, then holds until it takes a token from release (or release is
// closed), and only then stores the batch.
type blockingCommitter struct {
	st      *store.Store
	entered chan int // each call's batch size, on entry
	release chan struct{}

	mu        sync.Mutex
	seq       uint64
	calls     int
	inFlight  int
	peak      int
	committed map[string]int // device → commits
}

func (c *blockingCommitter) CommitBatch(recs []*store.Record) error {
	c.mu.Lock()
	c.calls++
	c.inFlight++
	c.peak = max(c.peak, c.inFlight)
	c.mu.Unlock()
	c.entered <- len(recs)
	<-c.release
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inFlight--
	for _, r := range recs {
		c.seq++
		r.Seq = c.seq
		if err := c.st.PutSeq(*r); err != nil {
			return err
		}
		c.committed[r.Device]++
	}
	return nil
}

// TestGroupCommittersInFlight pins the JSON engine's shape: one group
// committer, so one commit waits on the disk while later uploads queue,
// and the committer freed from its fsync takes everything queued as one
// batch.
func TestGroupCommittersInFlight(t *testing.T) {
	policy := crowd.DefaultPolicy()
	st := store.New(4)
	bc := &blockingCommitter{st: st, entered: make(chan int, 64), release: make(chan struct{}), committed: map[string]int{}}
	p, err := ingest.New(ingest.Config{QueueDepth: 16, Policy: policy, Store: st, WAL: bc})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	submit := func(i int) {
		t.Helper()
		if err := p.Submit(ctx, testkit.AcceptedPayload(t, policy, fmt.Sprintf("gc-%02d", i), 1000+float64(i), 25)); err != nil {
			t.Fatal(err)
		}
	}
	awaitEntry := func(what string) int {
		t.Helper()
		select {
		case n := <-bc.entered:
			return n
		case <-time.After(5 * time.Second):
			t.Fatalf("no CommitBatch call for %s", what)
			return 0
		}
	}

	// One upload at a time: each is taken by an idle committer, whose
	// commit then holds.
	const committers, queued = 1, 8
	for i := 0; i < committers; i++ {
		submit(i)
		if n := awaitEntry(fmt.Sprintf("upload %d", i)); n != 1 {
			t.Fatalf("upload %d committed in a batch of %d, want 1", i, n)
		}
	}
	// Every committer is busy: further uploads wait in the queue.
	for i := committers; i < committers+queued; i++ {
		submit(i)
	}
	select {
	case n := <-bc.entered:
		t.Fatalf("a commit of %d started with %d already in flight", n, committers)
	case <-time.After(100 * time.Millisecond):
	}
	bc.mu.Lock()
	peak := bc.peak
	bc.mu.Unlock()
	if peak != committers {
		t.Fatalf("%d CommitBatch calls in flight at once, want %d", peak, committers)
	}

	// Free one committer: it alone drains the queue, as one group.
	bc.release <- struct{}{}
	if n := awaitEntry("the queued uploads"); n != queued {
		t.Errorf("the freed committer took %d queued uploads, want all %d", n, queued)
	}
	close(bc.release)
	p.Close()

	c := p.Counters()
	testkit.CheckCounterFlow(t, c)
	if c.Stored != committers+queued || bc.calls >= committers+queued {
		t.Errorf("stored %d uploads in %d CommitBatch calls, want %d in fewer calls",
			c.Stored, bc.calls, committers+queued)
	}
	for i := 0; i < committers+queued; i++ {
		if n := bc.committed[fmt.Sprintf("gc-%02d", i)]; n != 1 {
			t.Errorf("upload gc-%02d committed %d times, want once", i, n)
		}
	}
}

// TestGroupCommitBound holds one commit, queues 40 uploads behind it and
// pins how they drain: one committer takes them as groups of 32 and 8.
// A second committer would take the first queued upload alone, and a
// bound as deep as the queue would take all 40 at once.
func TestGroupCommitBound(t *testing.T) {
	policy := crowd.DefaultPolicy()
	st := store.New(4)
	bc := &blockingCommitter{st: st, entered: make(chan int, 64), release: make(chan struct{}), committed: map[string]int{}}
	p, err := ingest.New(ingest.Config{QueueDepth: 64, Policy: policy, Store: st, WAL: bc})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	submit := func(i int) {
		t.Helper()
		if err := p.Submit(ctx, testkit.AcceptedPayload(t, policy, fmt.Sprintf("gb-%02d", i), 1000+float64(i), 25)); err != nil {
			t.Fatal(err)
		}
	}
	awaitEntry := func(what string) int {
		t.Helper()
		select {
		case n := <-bc.entered:
			return n
		case <-time.After(5 * time.Second):
			t.Fatalf("no CommitBatch call for %s", what)
			return 0
		}
	}

	submit(0)
	if n := awaitEntry("the held upload"); n != 1 {
		t.Fatalf("the held upload committed in a batch of %d, want 1", n)
	}
	const queued = 40
	for i := 1; i <= queued; i++ {
		submit(i)
	}
	select {
	case n := <-bc.entered:
		t.Fatalf("a commit of %d started beside the held one", n)
	case <-time.After(100 * time.Millisecond):
	}
	bc.release <- struct{}{}
	if n := awaitEntry("the first group"); n != 32 {
		t.Errorf("first group after the held commit = %d uploads, want 32", n)
	}
	bc.release <- struct{}{}
	if n := awaitEntry("the second group"); n != queued-32 {
		t.Errorf("second group = %d uploads, want %d", n, queued-32)
	}
	close(bc.release)
	p.Close()

	c := p.Counters()
	testkit.CheckCounterFlow(t, c)
	if c.Stored != queued+1 || bc.calls != 3 || bc.peak != 1 {
		t.Errorf("stored %d uploads in %d CommitBatch calls with %d in flight at once, want %d in 3 with 1",
			c.Stored, bc.calls, bc.peak, queued+1)
	}
}

// TestMixedFrontDoorsDurable drives all three front doors at once
// against a real persister: the counters, the log and the store must
// agree, and recovery must restore exactly what was stored.
func TestMixedFrontDoorsDurable(t *testing.T) {
	policy := crowd.DefaultPolicy()
	dir := t.TempDir()
	st := store.New(4)
	pers, _, err := wal.Open(wal.PersistConfig{Dir: dir}, st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ingest.New(ingest.Config{QueueDepth: 8, Policy: policy, Store: st, WAL: pers})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Each worker sends perWorker uploads through its front door: every
	// fifth is rejected by the filters, and one is malformed.
	const workers, perWorker, malformed = 3, 20, 7
	uploads := func(door string, w int) [][]byte {
		raws := make([][]byte, perWorker)
		for i := range raws {
			device := fmt.Sprintf("%s-%d-%02d", door, w, i)
			switch {
			case i == malformed:
				raws[i] = []byte("{not json")
			case i%5 == 4:
				raws[i] = testkit.RejectedPayload(t, policy, device, 900)
			default:
				raws[i] = testkit.AcceptedPayload(t, policy, device, 1000+float64(i), 25)
			}
		}
		return raws
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		queued, waited := uploads("submit", w), uploads("wait", w)
		var batches [][]ingest.Submission
		for i, raw := range uploads("batch", w) {
			sub, _ := ingest.Decode(raw) // the malformed one decodes to an invalid zero Submission
			if i%4 == 0 {
				batches = append(batches, nil)
			}
			batches[len(batches)-1] = append(batches[len(batches)-1], sub)
		}
		wg.Add(3)
		go func() {
			defer wg.Done()
			for _, raw := range queued {
				if err := p.Submit(ctx, raw); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i, raw := range waited {
				_, err := p.SubmitWait(ctx, raw)
				switch {
				case i == malformed && !errors.Is(err, ingest.ErrBadPayload):
					t.Errorf("malformed SubmitWait = %v, want ErrBadPayload", err)
				case i != malformed && err != nil:
					t.Errorf("SubmitWait %d = %v", i, err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for _, subs := range batches {
				if _, err := p.SubmitBatch(ctx, subs); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	p.Close()

	c := p.Counters()
	testkit.CheckCounterFlow(t, c)
	if c.Received != 3*workers*perWorker || c.DecodeErrors != 3*workers {
		t.Errorf("received %d uploads with %d decode errors, want %d with %d",
			c.Received, c.DecodeErrors, 3*workers*perWorker, 3*workers)
	}
	pc := pers.Counters()
	if c.Stored != c.WALAppended || c.Stored != pc.Log.Appends || c.Stored != uint64(st.Len()) {
		t.Errorf("stored %d, wal appended %d, log appends %d, store holds %d: want all equal",
			c.Stored, c.WALAppended, pc.Log.Appends, st.Len())
	}
	want := st.Snapshot()
	pers.Crash()

	st2 := store.New(4)
	pers2, rec, err := wal.Open(wal.PersistConfig{Dir: dir}, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer pers2.Close()
	if rec.Restored != len(want) {
		t.Errorf("recovery restored %d records, %d were stored", rec.Restored, len(want))
	}
	if got := st2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("recovered store diverged from the committed state")
	}
}
