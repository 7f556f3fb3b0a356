// Package chaos is the cluster's seeded, deterministic fault-injection
// layer: the controlled-stress harness every scale-up change to the
// crowdd cluster is validated against (ROADMAP "cluster hardening").
//
// A Plan is a scripted set of network and disk faults — per-peer-pair
// latency distributions, probabilistic drops and error responses,
// asymmetric or symmetric partitions with scheduled heal, and slow-disk
// fsync delays — all derived from one root seed. A Transport is an
// http.RoundTripper that executes the plan on the peer traffic of one
// node; it threads through the cluster's single client seam
// (server.ClusterConfig.Client), so submission proxying, replication
// shipping and anti-entropy pulls all cross it. The wal's
// Config.FsyncDelay seam carries the disk half.
//
// Determinism has two layers. Fault draws are per-pair seeded streams
// (sim.NewSource style), so a pair's fault sequence depends only on the
// seed and that pair's own traffic. The plan's event log records only
// scripted plan-level events — rules installed, partitions cut and
// healed — never per-request draws, so the log for a fixed seed is
// byte-identical across runs regardless of goroutine scheduling; the
// chaos tests pin exactly that (`go test ./internal/server -run Chaos
// -count=2`).
//
// Scenario (scenario.go) names the standard fault shapes — baseline,
// degraded, partition, high-load — run by internal/server's chaos test
// matrix (`make chaos-smoke`). Against real daemons, `make cluster-demo`
// SIGKILLs one node of a three-node cluster under load.
package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"accubench/internal/sim"
)

// Rule is the fault policy for one directed peer pair.
type Rule struct {
	// Latency is added to every request; Jitter widens it uniformly to
	// Latency ± Jitter (clamped at zero).
	Latency time.Duration
	Jitter  time.Duration
	// Drop is the probability a request fails with a connection error
	// before reaching the destination.
	Drop float64
	// Error is the probability the destination answers a synthetic
	// 503 instead of handling the request.
	Error float64
	// BodyErr is the probability the response connection breaks mid-body:
	// the destination handled the request, but the caller reading the
	// response body hits a connection reset partway through.
	BodyErr float64
}

func (r Rule) String() string {
	parts := []string{}
	if r.Latency > 0 || r.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("latency=%v±%v", r.Latency, r.Jitter))
	}
	if r.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.2f", r.Drop))
	}
	if r.Error > 0 {
		parts = append(parts, fmt.Sprintf("err=%.2f", r.Error))
	}
	if r.BodyErr > 0 {
		parts = append(parts, fmt.Sprintf("bodyerr=%.2f", r.BodyErr))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Stats counts the faults a plan actually injected. Unlike the event
// log these depend on traffic volume and scheduling — they are for
// reporting, never for determinism assertions.
type Stats struct {
	Delayed  uint64
	Dropped  uint64
	Errored  uint64
	BodyErrs uint64
	Blocked  uint64
}

type pair struct{ src, dst string }

type pairState struct {
	rule Rule
	rng  *sim.Source
}

// Plan is one scripted fault configuration shared by every node's
// Transport. All methods are safe for concurrent use.
type Plan struct {
	seed int64

	mu      sync.Mutex
	hosts   map[string]string // URL host -> node ID
	rules   map[pair]*pairState
	blocked map[pair]bool
	fsync   map[string]time.Duration
	events  []string
	stats   Stats
	timers  []*time.Timer
}

// NewPlan creates an empty fault plan rooted at seed. The same seed and
// the same scripted calls always produce the same event log and the
// same per-pair fault draws.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:    seed,
		hosts:   map[string]string{},
		rules:   map[pair]*pairState{},
		blocked: map[pair]bool{},
		fsync:   map[string]time.Duration{},
	}
}

// Seed returns the plan's root seed.
func (p *Plan) Seed() int64 { return p.seed }

// RegisterNode maps a node's base URL to its ID so Transports can
// resolve request destinations. Unregistered hosts pass through
// untouched.
func (p *Plan) RegisterNode(id, baseURL string) error {
	u, err := url.Parse(baseURL)
	if err != nil {
		return fmt.Errorf("chaos: node %s has unparseable URL %q: %w", id, baseURL, err)
	}
	if u.Host == "" {
		return fmt.Errorf("chaos: node %s URL %q has no host", id, baseURL)
	}
	p.mu.Lock()
	p.hosts[u.Host] = id
	p.mu.Unlock()
	return nil
}

// SetRule installs the fault rule for the directed pair src→dst,
// replacing any previous rule. The pair's random stream is derived from
// the plan seed and the pair's names, so rule draws on one pair never
// perturb another's.
func (p *Plan) SetRule(src, dst string, r Rule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules[pair{src, dst}] = &pairState{
		rule: r,
		rng:  sim.NewSource(p.seed, "chaos:"+src+"->"+dst),
	}
	p.logLocked(fmt.Sprintf("rule %s->%s: %s", src, dst, r))
}

// PartitionOneWay blocks traffic from src to dst (asymmetric: dst can
// still reach src).
func (p *Plan) PartitionOneWay(src, dst string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked[pair{src, dst}] = true
	p.logLocked(fmt.Sprintf("partition %s->%s", src, dst))
}

// Partition blocks traffic both ways between a and b.
func (p *Plan) Partition(a, b string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked[pair{a, b}] = true
	p.blocked[pair{b, a}] = true
	p.logLocked(fmt.Sprintf("partition %s<->%s", a, b))
}

// HealPartitions lifts every partition, leaving rules and fsync delays
// in place.
func (p *Plan) HealPartitions() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked = map[pair]bool{}
	p.logLocked("heal: partitions lifted")
}

// HealPartitionsAfter schedules HealPartitions after d — the scripted
// network recovery in partition scenarios. The heal event is logged
// when the timer fires.
func (p *Plan) HealPartitionsAfter(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timers = append(p.timers, time.AfterFunc(d, p.HealPartitions))
}

// SetFsyncDelay installs a slow-disk delay for one node. Wire the
// node's wal through FsyncDelay(node) to make it effective.
func (p *Plan) SetFsyncDelay(node string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsync[node] = d
	p.logLocked(fmt.Sprintf("fsync-delay %s: %v", node, d))
}

// FsyncDelay returns the function to plug into wal Config.FsyncDelay
// (via server.Config.FsyncDelay) for one node. It re-reads the plan on
// every fsync, so Heal unsticks a slow disk immediately.
func (p *Plan) FsyncDelay(node string) func() {
	return func() {
		p.mu.Lock()
		d := p.fsync[node]
		p.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
	}
}

// Heal clears every fault — rules, partitions and fsync delays — and
// stops pending scheduled heals.
func (p *Plan) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.timers {
		t.Stop()
	}
	p.timers = nil
	p.rules = map[pair]*pairState{}
	p.blocked = map[pair]bool{}
	p.fsync = map[string]time.Duration{}
	p.logLocked("heal: all faults cleared")
}

// Events returns the scripted event log: every rule install, partition
// cut, heal and fsync-delay change, in script order. For a fixed seed
// and script the log is byte-identical across runs — the determinism
// pin the chaos tests assert.
func (p *Plan) Events() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.events))
	copy(out, p.events)
	return out
}

// Stats returns a snapshot of the injected-fault counts.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Partitioned reports whether src→dst traffic is currently blocked.
func (p *Plan) Partitioned(src, dst string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[pair{src, dst}]
}

// Nodes returns the registered node IDs, sorted.
func (p *Plan) Nodes() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.hosts))
	seen := map[string]bool{}
	for _, id := range p.hosts {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func (p *Plan) logLocked(ev string) { p.events = append(p.events, ev) }

// verdict is one request's drawn fate.
type verdict struct {
	block   bool
	drop    bool
	errResp bool
	bodyErr bool
	delay   time.Duration
}

// decide draws src→dst's fate for one request. Blocked pairs never
// consume rule draws, so partition windows don't shift the pair's
// post-heal fault sequence relative to its traffic.
func (p *Plan) decide(src, dst string) verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	var v verdict
	if p.blocked[pair{src, dst}] {
		p.stats.Blocked++
		v.block = true
		return v
	}
	st := p.rules[pair{src, dst}]
	if st == nil {
		return v
	}
	r := st.rule
	if r.Drop > 0 && st.rng.Float64() < r.Drop {
		p.stats.Dropped++
		v.drop = true
		return v
	}
	if r.Error > 0 && st.rng.Float64() < r.Error {
		p.stats.Errored++
		v.errResp = true
		return v
	}
	if r.BodyErr > 0 && st.rng.Float64() < r.BodyErr {
		p.stats.BodyErrs++
		v.bodyErr = true
	}
	if r.Latency > 0 || r.Jitter > 0 {
		d := r.Latency
		if r.Jitter > 0 {
			d += time.Duration(st.rng.Uniform(-float64(r.Jitter), float64(r.Jitter)))
		}
		if d > 0 {
			p.stats.Delayed++
			v.delay = d
		}
	}
	return v
}

// resolve maps a request host to its node ID ("" when unregistered).
func (p *Plan) resolve(host string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hosts[host]
}

// Transport executes a plan on the HTTP traffic leaving one node. It is
// the injectable http.RoundTripper threaded through
// server.ClusterConfig.Client, so one Transport per node covers
// submission proxying, replication shipping and anti-entropy pulls.
type Transport struct {
	// Base carries requests that survive injection
	// (http.DefaultTransport when nil).
	Base http.RoundTripper

	plan *Plan
	node string
}

// NewTransport returns the Transport for one node's outbound traffic.
func NewTransport(p *Plan, node string) *Transport {
	return &Transport{plan: p, node: node}
}

// RoundTrip implements http.RoundTripper: resolve the destination,
// draw the pair's fate, and inject it.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	dst := t.plan.resolve(req.URL.Host)
	if dst == "" {
		return t.base().RoundTrip(req)
	}
	v := t.plan.decide(t.node, dst)
	switch {
	case v.block:
		closeBody(req)
		return nil, fmt.Errorf("chaos: partitioned %s->%s: connection refused", t.node, dst)
	case v.drop:
		closeBody(req)
		return nil, fmt.Errorf("chaos: dropped %s->%s: connection reset", t.node, dst)
	case v.errResp:
		closeBody(req)
		return &http.Response{
			Status:     "503 Service Unavailable (chaos)",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"text/plain"}},
			Body:       io.NopCloser(strings.NewReader("chaos: injected error\n")),
			Request:    req,
		}, nil
	}
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	resp, err := t.base().RoundTrip(req)
	if err != nil || !v.bodyErr {
		return resp, err
	}
	// Mid-body break: let some bytes through, then reset. The handler on
	// the far side already ran — exactly the ambiguous-outcome failure
	// proxy routing must survive.
	allow := int64(1)
	if resp.ContentLength > 1 {
		allow = resp.ContentLength / 2
	}
	resp.Body = &truncatedBody{inner: resp.Body, remaining: allow, src: t.node, dst: dst}
	return resp, nil
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// truncatedBody yields up to remaining bytes of the real body, then
// fails like a reset connection.
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int64
	src, dst  string
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("chaos: connection %s->%s reset mid-body", b.src, b.dst)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		// The real body ended before the cut point; the reset surfaces on
		// the next read instead of a clean EOF.
		b.remaining = 0
		return n, nil
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }
