package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/store"
)

// payload builds a valid wire upload with a synthetic geometric cooldown
// decay toward amb.
func payload(t *testing.T, device string, score, amb float64) []byte {
	t.Helper()
	sub := Submission{Device: device, Model: "Nexus 5", Score: score}
	delta := 70 - amb
	for i := 0; i < 40; i++ {
		sub.Cooldown = append(sub.Cooldown, CooldownPoint{
			AtSeconds: float64(i+1) * 5,
			TempC:     amb + delta*math.Pow(0.93, float64(i+1)),
		})
	}
	raw, err := Marshal(sub.Device, sub.Model, sub.Score, sub.Readings())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newPipeline(t *testing.T, st *store.Store, mut ...func(*Config)) *Pipeline {
	t.Helper()
	cfg := Config{QueueDepth: 8, Policy: crowd.DefaultPolicy(), Store: st}
	for _, m := range mut {
		m(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineEndToEnd(t *testing.T) {
	st := store.New(4)
	p := newPipeline(t, st)
	p.Start(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// 24 °C decays estimate inside the window; 38 °C outside; garbage drops.
	uploads := [][]byte{
		payload(t, "d-accept-1", 1000, 24),
		payload(t, "d-accept-2", 1100, 25),
		payload(t, "d-reject-hot", 900, 38),
		[]byte("{not json"),
		[]byte(`{"device":"d-no-trace","model":"Nexus 5","score":5}`),
	}
	for _, u := range uploads {
		if err := p.Submit(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	c := p.Counters()
	if c.Received != 5 || c.DecodeErrors != 2 || c.Stored != 3 {
		t.Errorf("counters = %+v, want received 5, decode errors 2, stored 3", c)
	}
	if c.Accepted != 2 || c.Rejected != 1 {
		t.Errorf("counters = %+v, want accepted 2, rejected 1", c)
	}
	if c.Received != c.DecodeErrors+c.Aborted+c.Stored {
		t.Errorf("flow invariant violated: %+v", c)
	}
	if st.Len() != 3 || st.AcceptedLen() != 2 {
		t.Errorf("store has %d/%d records", st.Len(), st.AcceptedLen())
	}
	rec, ok := st.Device("d-reject-hot")
	if !ok || rec.Accepted || rec.RejectReason == "" {
		t.Errorf("hot-climate record = %+v, %v", rec, ok)
	}
	// Intake is closed now.
	if err := p.Submit(ctx, uploads[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	st := store.New(1)
	p := newPipeline(t, st, func(c *Config) { c.QueueDepth = 1 })
	// Not started: the intake queue fills and Submit must block until the
	// context expires rather than queueing without bound.
	bg := context.Background()
	if err := p.Submit(bg, payload(t, "d0", 100, 24)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if err := p.Submit(ctx, payload(t, "d1", 100, 24)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated Submit = %v, want deadline exceeded", err)
	}
	// Once the committers start, the queue drains and both the first
	// upload and a retry go through.
	p.Start(bg)
	ctx2, cancel2 := context.WithTimeout(bg, 5*time.Second)
	defer cancel2()
	if err := p.Submit(ctx2, payload(t, "d1", 100, 24)); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if c := p.Counters(); c.Stored != 2 {
		t.Errorf("counters = %+v, want 2 stored", c)
	}
}

func TestGracefulCloseDrainsEverything(t *testing.T) {
	st := store.New(8)
	p := newPipeline(t, st, func(c *Config) { c.QueueDepth = 4 })
	p.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			amb := 15 + float64(i%20) // mix of in- and out-of-window climates
			if err := p.Submit(ctx, payload(t, fmt.Sprintf("d%03d", i), 1000+float64(i), amb)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	p.Close()

	c := p.Counters()
	if c.Received != n || c.Stored != n || c.Aborted != 0 {
		t.Errorf("graceful close dropped submissions: %+v", c)
	}
	if c.Accepted == 0 || c.Rejected == 0 {
		t.Errorf("filter saw no traffic on both sides: %+v", c)
	}
	if st.Len() != n {
		t.Errorf("store has %d records, want %d", st.Len(), n)
	}
}

func TestHardAbortCountsDrops(t *testing.T) {
	st := store.New(2)
	p := newPipeline(t, st, func(c *Config) { c.QueueDepth = 2 })
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	for i := 0; i < 6; i++ {
		if err := p.Submit(sctx, payload(t, fmt.Sprintf("d%d", i), 100, 24)); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	p.Close()
	c := p.Counters()
	if c.Received != c.DecodeErrors+c.Aborted+c.Stored {
		t.Errorf("flow invariant violated after abort: %+v", c)
	}
	if err := p.Submit(sctx, payload(t, "late", 100, 24)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after abort = %v, want ErrClosed", err)
	}
}

func TestDecodeValidation(t *testing.T) {
	good := payload(t, "d", 100, 24)
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		raw  string
	}{
		{"not json", `nope`},
		{"no device", `{"model":"m","score":1,"cooldown":[{"at_s":1,"temp_c":20}]}`},
		{"no model", `{"device":"d","score":1,"cooldown":[{"at_s":1,"temp_c":20}]}`},
		{"zero score", `{"device":"d","model":"m","score":0,"cooldown":[{"at_s":1,"temp_c":20}]}`},
		{"no trace", `{"device":"d","model":"m","score":1}`},
		{"absurd temp", `{"device":"d","model":"m","score":1,"cooldown":[{"at_s":1,"temp_c":400}]}`},
		{"non-monotonic", `{"device":"d","model":"m","score":1,"cooldown":[{"at_s":5,"temp_c":30},{"at_s":5,"temp_c":29}]}`},
	}
	for _, tc := range bad {
		if _, err := Decode([]byte(tc.raw)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	raw := payload(t, "d-rt", 1234, 22)
	sub, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Device != "d-rt" || sub.Model != "Nexus 5" || sub.Score != 1234 {
		t.Errorf("round trip lost fields: %+v", sub)
	}
	readings := sub.Readings()
	if len(readings) != 40 {
		t.Fatalf("round trip lost polls: %d", len(readings))
	}
	if readings[0].At != 5*time.Second {
		t.Errorf("poll time round trip: %v", readings[0].At)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Policy: crowd.DefaultPolicy()}); err == nil {
		t.Error("config without store accepted")
	}
	if _, err := New(Config{Store: store.New(1)}); err == nil {
		t.Error("config with empty policy window accepted")
	}
}

// committer is a test double for the WAL's commit point: it assigns
// sequence numbers, forwards to the store like the real Persister, and
// fails on demand after a set number of commits.
type committer struct {
	st      *store.Store
	mu      sync.Mutex
	seq     uint64
	failAll bool
}

func (c *committer) CommitBatch(recs []*store.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failAll {
		return errors.New("disk full")
	}
	for _, r := range recs {
		c.seq++
		r.Seq = c.seq
		if err := c.st.PutSeq(*r); err != nil {
			return err
		}
	}
	return nil
}

func TestPipelineCommitsThroughWAL(t *testing.T) {
	st := store.New(4)
	wal := &committer{st: st}
	p := newPipeline(t, st, func(c *Config) { c.WAL = wal })
	p.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 6; i++ {
		if err := p.Submit(ctx, payload(t, fmt.Sprintf("wal-%d", i), 1000, 24)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	c := p.Counters()
	if c.WALAppended != 6 || c.WALFailed != 0 || c.Stored != 6 {
		t.Fatalf("counters = %+v, want 6 wal appends", c)
	}
	if st.Len() != 6 {
		t.Fatalf("store holds %d records", st.Len())
	}
	// Every stored record carries the committer's sequence number.
	for _, r := range st.Model("Nexus 5") {
		if r.Seq == 0 {
			t.Fatalf("stored record lost its assigned seq: %+v", r)
		}
	}
}

func TestPipelineCountsWALFailures(t *testing.T) {
	st := store.New(4)
	wal := &committer{st: st, failAll: true}
	p := newPipeline(t, st, func(c *Config) { c.WAL = wal })
	p.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if err := p.Submit(ctx, payload(t, fmt.Sprintf("fail-%d", i), 1000, 24)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	c := p.Counters()
	if c.WALFailed != 4 || c.Stored != 0 {
		t.Fatalf("counters = %+v, want 4 wal failures and nothing stored", c)
	}
	// Nothing became visible without committing.
	if st.Len() != 0 {
		t.Fatalf("store holds %d records after commit failures", st.Len())
	}
	// The conservation law still balances with the failure leg.
	if c.Received != c.DecodeErrors+c.Aborted+c.Stored+c.WALFailed {
		t.Errorf("flow invariant violated: %+v", c)
	}
}
