package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"accubench/internal/wire"
)

// wireWorkerConfig carries one upload worker's shared state: the
// stream client, the node list (home is this worker's starting node),
// and the run-wide accounting sinks.
type wireWorkerConfig struct {
	client    *http.Client
	nodes     []string
	home      int
	batch     int
	retries   int
	stderr    io.Writer
	sent      *atomic.Uint64
	retried   *atomic.Uint64
	failed    *atomic.Uint64
	postNanos *atomic.Int64
	ackedMu   *sync.Mutex
	acked     *[]string
}

// wireWorker drains finished benchmarks from items, accumulates them
// into batch frames and ships them over one persistent wire stream to
// the worker's home node — a window of one batch in flight, so the
// server's ack pace is the flow control. A stream error or an erroring
// ack closes the stream, fails over to the next node, and retries the
// whole batch: retries are dup-safe (the cluster stamps resubmissions
// fresh and keeps the newest per device), and an acked batch is durable,
// so nothing acknowledged is ever resent.
func wireWorker(cfg wireWorkerConfig, items <-chan wire.Submission) {
	var st *wire.Stream
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	batch := make([]wire.Submission, 0, cfg.batch)

	flush := func() {
		if len(batch) == 0 {
			return
		}
		t0 := time.Now()
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				cfg.retried.Add(1)
				time.Sleep(time.Duration(attempt) * 20 * time.Millisecond)
			}
			if attempt > cfg.retries {
				fmt.Fprintf(cfg.stderr, "crowdload: batch of %d gave up after %d attempts\n", len(batch), attempt)
				cfg.failed.Add(uint64(len(batch)))
				break
			}
			if st == nil {
				var err error
				st, err = wire.OpenStream(cfg.client, cfg.nodes[cfg.home], nil)
				if err != nil {
					cfg.home = (cfg.home + 1) % len(cfg.nodes)
					continue
				}
			}
			ack, err := st.Do(batch)
			if err != nil {
				// The stream is unusable past any error — reopen, on the
				// next node if there is one.
				st.Close()
				st = nil
				cfg.home = (cfg.home + 1) % len(cfg.nodes)
				continue
			}
			if ack.Err != "" {
				// An erroring ack (unreplicated, commit failure) leaves
				// the batch uncommitted from the client's view: retry it
				// whole.
				continue
			}
			if int(ack.Committed)+int(ack.Dropped) != len(batch) {
				continue
			}
			if ack.Dropped > 0 {
				// With a clean Err, dropped submissions were rejected as
				// invalid — a retry can never fix them, so the batch is
				// settled; count them failed rather than retrying forever.
				fmt.Fprintf(cfg.stderr, "crowdload: server dropped %d invalid submissions from a batch of %d\n", ack.Dropped, len(batch))
				cfg.failed.Add(uint64(ack.Dropped))
			}
			cfg.postNanos.Add(time.Since(t0).Nanoseconds())
			cfg.sent.Add(uint64(len(batch)))
			cfg.ackedMu.Lock()
			for _, ws := range batch {
				*cfg.acked = append(*cfg.acked, ws.Device)
			}
			cfg.ackedMu.Unlock()
			break
		}
		batch = batch[:0]
	}

	for ws := range items {
		batch = append(batch, ws)
		if len(batch) >= cfg.batch {
			flush()
		}
	}
	flush()
}
