package bench

import (
	"context"
	"math"
	"sync"
	"syscall"
	"time"

	"accubench/internal/sim"
)

// Sender delivers one batch of item indices on worker w's connection and
// returns once the server has answered it. An error fails every item of
// the batch.
type Sender func(w int, items []int) error

// Outcome is what one open-loop phase observed.
type Outcome struct {
	// Start is the instant every due offset counts from.
	Start time.Time
	// Due is each item's due offset from Start.
	Due []time.Duration
	// Done is each item's completion time; zero where the item failed or
	// was never sent.
	Done []time.Time
	// Late holds, for every time a worker slept until an item fell due,
	// how late it woke: the generator's own health, kept apart from the
	// server's latency.
	Late []time.Duration
	// Failed counts items that did not complete.
	Failed int
}

// Latencies returns, for every completed item, the time from when it was
// due to when the call carrying it returned.
func (o Outcome) Latencies() []time.Duration {
	out := make([]time.Duration, 0, len(o.Done))
	for i, t := range o.Done {
		if !t.IsZero() {
			out = append(out, t.Sub(o.Start.Add(o.Due[i])))
		}
	}
	return out
}

// Elapsed is the time from Start to the last completion.
func (o Outcome) Elapsed() time.Duration {
	var last time.Time
	for _, t := range o.Done {
		if t.After(last) {
			last = t
		}
	}
	return last.Sub(o.Start)
}

// Arrivals returns n due offsets of a Poisson arrival process at rate
// items per second — independent users, each arriving at random — drawn
// from seed and tag. Random gaps keep arrivals from locking in phase
// with the server's periodic work (its group-commit and shipping
// tickers), which a fixed spacing would, fixing every run's latency at
// whatever phase it happened to start in. A rate of zero makes every item
// due at once, which turns a phase into a capacity measurement.
func Arrivals(n int, rate float64, seed int64, tag string) []time.Duration {
	due := make([]time.Duration, n)
	if rate <= 0 {
		return due
	}
	src := sim.NewSource(seed, "bench:arrivals:"+tag)
	t := 0.0
	for i := range due {
		t += -math.Log(1-src.Float64()) / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// OpenLoop runs items on a fixed arrival schedule from workers goroutines,
// one connection each. A free worker takes every item already due, up to
// maxBatch, and sends them as one call; when none is due it sleeps until
// the next one is. Each item's latency counts from its due time, not from
// when it was sent, so a server stall shows in the latency of every item
// that fell due during it: the schedule never waits for the server, which
// is what keeps the measurement free of coordinated omission.
//
// OpenLoop returns once every item has completed or failed, or ctx is
// done; items never sent count as failed.
func OpenLoop(ctx context.Context, start time.Time, due []time.Duration, workers, maxBatch int, send Sender) Outcome {
	out := Outcome{Start: start, Due: due, Done: make([]time.Time, len(due))}
	var (
		mu    sync.Mutex
		next  int
		wg    sync.WaitGroup
		lates = make([][]time.Duration, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]int, 0, maxBatch)
			for ctx.Err() == nil {
				mu.Lock()
				if next >= len(due) {
					mu.Unlock()
					return
				}
				first := next
				next++
				mu.Unlock()
				dueAt := start.Add(due[first])
				if time.Until(dueAt) > 0 {
					if !sleepUntil(ctx, dueAt) {
						return
					}
					lates[w] = append(lates[w], time.Since(dueAt))
				}
				batch = append(batch[:0], first)
				now := time.Since(start)
				mu.Lock()
				for len(batch) < maxBatch && next < len(due) && due[next] <= now {
					batch = append(batch, next)
					next++
				}
				mu.Unlock()
				if err := send(w, batch); err != nil {
					continue
				}
				t := time.Now()
				for _, i := range batch {
					out.Done[i] = t
				}
			}
		}(w)
	}
	wg.Wait()
	for _, l := range lates {
		out.Late = append(out.Late, l...)
	}
	for _, t := range out.Done {
		if t.IsZero() {
			out.Failed++
		}
	}
	return out
}

// sleepUntil blocks the calling goroutine's thread until t; it returns
// false if ctx ends first. It sleeps in nanosleep rather than on a
// runtime timer: an idle Go process wakes its timers on a millisecond
// tick, which would add up to a millisecond of the generator's own
// lateness to every latency it measures.
func sleepUntil(ctx context.Context, t time.Time) bool {
	for {
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		ts := syscall.NsecToTimespec(int64(min(d, 50*time.Millisecond)))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}
