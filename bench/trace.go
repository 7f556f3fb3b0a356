package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call of the traced run: a layer boundary with the
// span that caused it. Spans serving the same batch (or repetition)
// share a trace number.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the traced run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Items is how many submissions (or steps) the call handled.
	Items int `json:"items,omitempty"`
}

// tracer keeps a run's spans in memory until the run writes them out.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; parent 0 makes it a root.
func (t *tracer) begin(name string, parent, trace, items int) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, Items: items})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, trace, items int, fn func() error) error {
	id := t.begin(name, parent, trace, items)
	defer t.end(id)
	return fn()
}

// durations returns every span's duration for name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// self returns every span's self time for name: its duration minus the
// part of it its children cover.
func (t *tracer) self(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start-child[s.ID]))
		}
	}
	return out
}

// perItem returns, for the spans named name, each one's nanoseconds per
// item it handled, and their total time divided by their total items.
func (t *tracer) perItem(name string) (each []float64, pooled float64, items int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, s := range t.spans {
		if s.Name == name {
			each = append(each, float64(s.End-s.Start)/float64(s.Items))
			total += s.End - s.Start
			items += s.Items
		}
	}
	return each, float64(total) / float64(items), items
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
