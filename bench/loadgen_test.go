package bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"accubench/internal/wire"
)

// stallingStream is a POST /v1/stream stub that acks every batch at once,
// except that every batch arriving in one window of stall, opened by the
// first batch after stallAfter, waits until the window closes — a server
// pause such as a snapshot that blocks all commits.
type stallingStream struct {
	start       time.Time
	stallAfter  time.Duration
	stall       time.Duration
	mu          sync.Mutex
	from, until time.Time
}

// begin starts the clock stallAfter counts from.
func (s *stallingStream) begin() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start = time.Now()
	return s.start
}

func (s *stallingStream) window() (time.Time, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.from, s.until
}

func (s *stallingStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	rd := wire.NewReader(r.Body)
	var ack []byte
	for {
		fr, err := rd.Next()
		if err != nil {
			return
		}
		s.mu.Lock()
		now := time.Now()
		if s.from.IsZero() && now.Sub(s.start) >= s.stallAfter {
			s.from, s.until = now, now.Add(s.stall)
		}
		until := s.until
		s.mu.Unlock()
		if now.Before(until) {
			time.Sleep(time.Until(until))
		}
		ack = wire.AppendAckFrame(ack[:0], wire.Ack{Batch: fr.Seq, Committed: uint32(fr.Count)})
		if _, err := w.Write(ack); err != nil {
			return
		}
		rc.Flush()
	}
}

// TestOpenLoopCountsStalls checks that the generator avoids coordinated
// omission. The stub stalls every request for 200 ms once; each
// submission due during the stall must show at least the stall's
// remaining time in its latency, however promptly it was sent once the
// stall ended, while the generator's own wake-up lateness stays small
// and apart from it.
func TestOpenLoopCountsStalls(t *testing.T) {
	const (
		n    = 600
		rate = 1000.0
	)
	stub := &stallingStream{stallAfter: 150 * time.Millisecond, stall: 200 * time.Millisecond}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	subs := make([]wire.Submission, n)
	for i := range subs {
		subs[i] = wire.Submission{Device: fmt.Sprint(i), Model: "m", Score: 1, Cooldown: []wire.Point{{AtSeconds: 5, TempC: 30}}}
	}
	start := stub.begin()
	s, err := newStreamSender([]string{srv.URL, srv.URL}, subs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	out := OpenLoop(context.Background(), start, Arrivals(n, rate, 1, "stall"), 2, batchK, s.send)
	if out.Failed > 0 {
		t.Fatalf("%d submissions failed: %v", out.Failed, s.errs.get())
	}
	from, until := stub.window()
	if from.IsZero() {
		t.Fatal("the stub never stalled")
	}
	stalled := 0
	for i, done := range out.Done {
		due := out.Start.Add(out.Due[i])
		if due.Before(from) || !due.Before(until) {
			continue
		}
		stalled++
		if lat, rest := done.Sub(due), until.Sub(due); lat < rest {
			t.Errorf("submission %d due %v into the stall: latency %v, less than the %v of stall left", i, due.Sub(from), lat, rest)
		}
	}
	if stalled < 100 {
		t.Fatalf("only %d submissions fell due during the stall", stalled)
	}
	late := ms(out.Late)
	if len(late) == 0 {
		t.Fatal("the generator never slept for a due time")
	}
	if p99 := percentile(late, 99); p99 > 10 {
		t.Errorf("generator late p99 %.3f ms; it should wake within a few milliseconds", p99)
	}
}
