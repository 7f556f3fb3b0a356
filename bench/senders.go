package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"accubench/internal/wire"
)

// newClient returns an HTTP client whose transport keeps at most one
// connection, so each load-generator worker owns exactly one. timeout
// bounds a whole exchange; streams, which last a whole phase, pass 0.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// firstError keeps the first error a sender saw, for the run's log.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
	return err
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// streamSender sends batches over one persistent POST /v1/stream per
// worker — crowdload's default binary path — and treats a batch as done
// when its ack frame reports every submission committed.
type streamSender struct {
	bases   []string
	subs    []wire.Submission
	clients []*http.Client
	streams []*wire.Stream
	scratch [][]wire.Submission
	errs    firstError
}

// newStreamSender opens one stream per base URL; worker w uses bases[w].
func newStreamSender(bases []string, subs []wire.Submission) (*streamSender, error) {
	s := &streamSender{
		bases:   bases,
		subs:    subs,
		clients: make([]*http.Client, len(bases)),
		streams: make([]*wire.Stream, len(bases)),
		scratch: make([][]wire.Submission, len(bases)),
	}
	for w, base := range bases {
		s.clients[w] = newClient(0)
		st, err := wire.OpenStream(s.clients[w], base, nil)
		if err != nil {
			s.close()
			return nil, err
		}
		s.streams[w] = st
	}
	return s, nil
}

func (s *streamSender) send(w int, items []int) error {
	batch := s.scratch[w][:0]
	for _, i := range items {
		batch = append(batch, s.subs[i])
	}
	s.scratch[w] = batch
	if s.streams[w] == nil {
		st, err := wire.OpenStream(s.clients[w], s.bases[w], nil)
		if err != nil {
			return s.errs.set(err)
		}
		s.streams[w] = st
	}
	ack, err := s.streams[w].Do(batch)
	if err != nil {
		s.streams[w].Close()
		s.streams[w] = nil
		return s.errs.set(err)
	}
	if ack.Err != "" || int(ack.Committed) != len(batch) {
		return s.errs.set(fmt.Errorf("batch of %d: %d committed, %d dropped: %s", len(batch), ack.Committed, ack.Dropped, ack.Err))
	}
	return nil
}

func (s *streamSender) close() {
	for w, st := range s.streams {
		if st != nil {
			st.Close()
		}
		if c := s.clients[w]; c != nil {
			c.CloseIdleConnections()
		}
	}
}

// probeEvery paces the JSON durability probe: after each 404 it waits
// this long before asking again, an eighth of crowdd's 2 ms group-commit
// window, so the probe neither spins on the daemon it times nor adds much
// more than this to a latency.
const probeEvery = 250 * time.Microsecond

// jsonSender posts one submission per call to POST /v1/submissions. With
// probe set, a 202 is followed by GET /v1/devices/{id} on the same
// connection, repeated every probeEvery until it answers 200, so the call
// returns once the submission is durably stored and visible — what a
// stream ack already means — whatever a 202 promises.
type jsonSender struct {
	ctx     context.Context
	base    string
	bodies  [][]byte
	ids     []string
	probe   bool
	clients []*http.Client
	errs    firstError
}

func newJSONSender(ctx context.Context, base string, subs []wire.Submission, workers int, probe bool) (*jsonSender, error) {
	bodies, err := jsonBodies(subs)
	if err != nil {
		return nil, err
	}
	s := &jsonSender{ctx: ctx, base: base, bodies: bodies, ids: make([]string, len(subs)), probe: probe, clients: make([]*http.Client, workers)}
	for i, sub := range subs {
		s.ids[i] = sub.Device
	}
	for w := range s.clients {
		s.clients[w] = newClient(30 * time.Second)
	}
	return s, nil
}

func (s *jsonSender) send(w int, items []int) error {
	c := s.clients[w]
	for _, i := range items {
		resp, err := c.Post(s.base+"/v1/submissions", "application/json", bytes.NewReader(s.bodies[i]))
		if err != nil {
			return s.errs.set(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return s.errs.set(fmt.Errorf("POST %s: %s", s.ids[i], resp.Status))
		}
		for s.probe {
			resp, err := c.Get(s.base + "/v1/devices/" + s.ids[i])
			if err != nil {
				return s.errs.set(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			if resp.StatusCode != http.StatusNotFound {
				return s.errs.set(fmt.Errorf("GET device %s: %s", s.ids[i], resp.Status))
			}
			if !sleepUntil(s.ctx, time.Now().Add(probeEvery)) {
				return s.errs.set(s.ctx.Err())
			}
		}
	}
	return nil
}

func (s *jsonSender) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}
