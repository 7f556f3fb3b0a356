// Package ingest is the crowd backend's submission engine. Every upload
// reaches the store the same way:
//
//	decode   — parse and validate the wire format (a stream frame arrives
//	           pre-parsed, so for it this is validation alone)
//	evaluate — estimate the ambient from the cooldown trace (Aitken
//	           extrapolation via crowd.Policy) and apply the strict filters
//	commit   — group-commit the batch's verdicts through the Committer
//	           (one WAL append + fsync, then one store pass per shard,
//	           which also updates each model's sketch)
//
// Three front doors feed that path. SubmitBatch runs a batch of decoded
// submissions inline: the binary stream route and cluster batches.
// SubmitWait decodes one JSON upload and commits it inline: the cluster
// JSON route. Submit admits one JSON upload into a queue bounded by
// QueueDepth and returns at once, blocking only while the queue is full
// (the HTTP layer's backpressure); one group committer drains the queue,
// decoding whatever queued while its previous commit was in flight (at
// most maxGroup uploads) and committing it as one batch.
//
// Shutdown is graceful by default: Close stops intake and commits every
// admitted upload before it returns. Cancelling the Start context
// instead aborts promptly, dropping queued uploads (counted, never
// silent).
package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"time"

	"accubench/internal/accubench"
	"accubench/internal/crowd"
	"accubench/internal/obs"
	"accubench/internal/store"
	"accubench/internal/units"
)

// ErrClosed is returned by Submit after Close (or Start-context
// cancellation) has stopped intake.
var ErrClosed = errors.New("ingest: pipeline closed")

// ErrBadPayload wraps decode failures surfaced by SubmitWait, so callers
// can tell a malformed upload (client error) from a commit failure.
var ErrBadPayload = errors.New("ingest: bad payload")

// errCommitFailed is SubmitWait's answer when its upload's commit failed.
var errCommitFailed = errors.New("ingest: commit failed")

// Config parameterizes a Pipeline.
type Config struct {
	// QueueDepth bounds Submit's queue of admitted JSON uploads
	// (DefaultQueueDepth if <= 0).
	QueueDepth int
	// Policy is the per-submission acceptance policy.
	Policy crowd.Policy
	// Store receives the verdicts. Required.
	Store *store.Store
	// WAL, when non-nil, makes every commit durable: a batch is appended
	// to the write-ahead log and fsynced, then inserted into the store
	// with its log-assigned sequence numbers, instead of stored directly.
	// This is the append-before-store commit point: a record is never
	// visible without being durable.
	WAL Committer
	// Obs is the metrics registry the pipeline's counters and per-stage
	// latency histograms register in. Nil gets a private registry, so
	// the pipeline is always instrumented; pass the service's registry
	// to expose the metrics on its scrape surface.
	Obs *obs.Registry
	// Tracer, when non-nil and enabled, emits one span per stage per JSON
	// upload (decode, filter, wal_append, store), correlated by a trace
	// ID assigned on admission — the reconstructible per-upload timeline
	// behind crowdd's -trace flag.
	Tracer *obs.Tracer
}

// Committer is the durability point every commit goes through when a
// WAL is configured. CommitBatch must make the whole batch durable and
// visible in the store, setting each record's Seq, before it returns; a
// failed CommitBatch drops the whole batch. internal/wal.Persister is the
// production implementation.
type Committer interface {
	CommitBatch(recs []*store.Record) error
}

// DefaultQueueDepth is the queue capacity for Config.QueueDepth <= 0.
const DefaultQueueDepth = 256

// maxGroup bounds one group commit of queued JSON uploads. One
// committer drains the queue, so the next group is whatever queued while
// the previous commit was in flight: the group commit happens at the
// queue, and each group costs the self-clocked WAL one fsync. More
// committers would keep several small groups in flight and fsync back to
// back. 32 still amortizes an fsync over ~30 uploads under load; a group
// as deep as the default queue (256) holds eight times as many decoded
// uploads at once, and raised json-ingest's mem_mb ~24% against ~6% at
// 32 (2-core Xeon VM).
const maxGroup = 32

// Counters is a snapshot of the pipeline's per-stage counters. The flow
// invariant after a graceful Close is
//
//	Received = DecodeErrors + Aborted + Stored + WALFailed
//	Stored   = Accepted + Rejected
//
// and, when a WAL is configured, Stored = WALAppended.
type Counters struct {
	// Received counts uploads admitted by Submit.
	Received uint64 `json:"received"`
	// Decoded counts uploads that parsed and validated.
	Decoded uint64 `json:"decoded"`
	// DecodeErrors counts malformed uploads (dropped at decode).
	DecodeErrors uint64 `json:"decode_errors"`
	// Evaluated counts submissions whose cooldown trace yielded an
	// ambient estimate.
	Evaluated uint64 `json:"evaluated"`
	// EstimateFailures counts submissions whose trace was unusable; they
	// are stored as rejected, not dropped.
	EstimateFailures uint64 `json:"estimate_failures"`
	// Accepted counts submissions that survived the strict filters.
	Accepted uint64 `json:"accepted"`
	// Rejected counts submissions filtered out (estimate outside the
	// window, or unusable trace).
	Rejected uint64 `json:"rejected"`
	// Stored counts records written to the store.
	Stored uint64 `json:"stored"`
	// Aborted counts in-flight submissions dropped by a hard (context)
	// shutdown.
	Aborted uint64 `json:"aborted"`
	// WALAppended counts records durably committed through the WAL before
	// storing (zero when no WAL is configured).
	WALAppended uint64 `json:"wal_appended"`
	// WALFailed counts records dropped because their WAL commit failed —
	// they were never stored, so acceptance never outran durability.
	WALFailed uint64 `json:"wal_failed"`
}

// counters holds the pipeline's per-stage counters as registry metrics:
// the same atomics back both the Counters() snapshot API and the
// service's /metrics exposition, so the two views can never diverge.
type counters struct {
	received, decoded, decodeErrors     *obs.Counter
	evaluated, estimateFailures         *obs.Counter
	accepted, rejected, stored, aborted *obs.Counter
	walAppended, walFailed              *obs.Counter
}

// newCounters registers the pipeline's counters, preserving the metric
// names the service has always exposed.
func newCounters(reg *obs.Registry) counters {
	c := func(name, help string) *obs.Counter { return reg.Counter(name, help) }
	return counters{
		received:         c("received_total", "uploads admitted by Submit"),
		decoded:          c("decoded_total", "uploads that parsed and validated"),
		decodeErrors:     c("decode_errors_total", "malformed uploads dropped at decode"),
		evaluated:        c("evaluated_total", "submissions whose trace yielded an ambient estimate"),
		estimateFailures: c("estimate_failures_total", "submissions with an unusable cooldown trace"),
		accepted:         c("accepted_total", "submissions that survived the strict filters"),
		rejected:         c("rejected_total", "submissions filtered out"),
		stored:           c("stored_total", "records written to the store"),
		aborted:          c("aborted_total", "in-flight submissions dropped by a hard shutdown"),
		walAppended:      c("wal_appended_total", "records durably committed through the WAL before storing"),
		walFailed:        c("wal_failed_total", "records dropped because their WAL commit failed"),
	}
}

func (c *counters) snapshot() Counters {
	return Counters{
		Received:         c.received.Value(),
		Decoded:          c.decoded.Value(),
		DecodeErrors:     c.decodeErrors.Value(),
		Evaluated:        c.evaluated.Value(),
		EstimateFailures: c.estimateFailures.Value(),
		Accepted:         c.accepted.Value(),
		Rejected:         c.rejected.Value(),
		Stored:           c.stored.Value(),
		Aborted:          c.aborted.Value(),
		WALAppended:      c.walAppended.Value(),
		WALFailed:        c.walFailed.Value(),
	}
}

// rawUpload is one admitted JSON upload: the payload plus its trace ID
// (empty when tracing is off).
type rawUpload struct {
	raw   []byte
	trace string
}

// Pipeline is the ingest engine. Create with New, launch with Start,
// feed with Submit, SubmitWait or SubmitBatch, and stop with Close.
type Pipeline struct {
	cfg Config

	// queue holds admitted JSON uploads until the group committer takes
	// them.
	queue chan rawUpload

	ctr    counters
	tracer *obs.Tracer
	// Per-stage latency histograms (ingest_stage_seconds), resolved once
	// so commits skip the vec lookup.
	decodeDur, filterDur, walDur, storeDur *obs.Histogram

	// Intake gate: every front door registers in submitters under mu;
	// Close flips closed, waits for registered callers to finish, then
	// closes queue.
	mu         sync.Mutex
	closed     bool
	submitters sync.WaitGroup

	stop      chan struct{} // closed on hard abort (Start ctx cancelled)
	stopOnce  sync.Once
	drained   chan struct{} // closed when the group committer has exited
	closeOnce sync.Once
	started   atomic.Bool
}

// New creates a pipeline. Nothing drains Submit's queue until Start.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("ingest: config needs a store")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry("")
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(nil) // disabled
	}
	stageDur := cfg.Obs.HistogramVec("ingest_stage_seconds",
		"per-stage submission latency", "stage", obs.DurationBuckets)
	return &Pipeline{
		cfg:       cfg,
		queue:     make(chan rawUpload, cfg.QueueDepth),
		ctr:       newCounters(cfg.Obs),
		tracer:    cfg.Tracer,
		decodeDur: stageDur.With("decode"),
		filterDur: stageDur.With("filter"),
		walDur:    stageDur.With("wal_append"),
		storeDur:  stageDur.With("store"),
		stop:      make(chan struct{}),
		drained:   make(chan struct{}),
	}, nil
}

// Start launches the group committer. Cancelling ctx hard-aborts the
// pipeline: intake closes, queued uploads are dropped (counted in
// Aborted) and the committer exits. For a graceful drain use Close
// instead.
func (p *Pipeline) Start(ctx context.Context) {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	go func() { defer close(p.drained); p.groupCommitter() }()
	// Hard abort on context cancellation.
	go func() {
		select {
		case <-ctx.Done():
			p.abort()
		case <-p.drained:
		}
	}()
}

// abort signals the committer to drop queued uploads and closes
// intake off the caller's goroutine: callers blocked in Submit unblock
// via p.stop, and the queue closes once they have returned.
func (p *Pipeline) abort() {
	p.stopOnce.Do(func() { close(p.stop) })
	go p.closeIntake()
}

// closeIntake stops every front door, waits until no caller is inside
// one, then closes the queue.
func (p *Pipeline) closeIntake() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.submitters.Wait()
	p.closeOnce.Do(func() { close(p.queue) })
}

// admit registers a caller at the intake gate, or reports false once
// intake has closed. An admitted caller calls p.submitters.Done on its
// way out.
func (p *Pipeline) admit() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.submitters.Add(1)
	return true
}

// Submit admits one raw JSON upload into the queue. It blocks while the
// queue is full — backpressure — until ctx expires or the pipeline shuts
// down. A nil error means admitted: the group committer decodes and
// commits it later. The bytes are owned by the pipeline afterwards.
func (p *Pipeline) Submit(ctx context.Context, raw []byte) error {
	if !p.admit() {
		return ErrClosed
	}
	defer p.submitters.Done()
	select {
	case p.queue <- rawUpload{raw: raw, trace: p.tracer.NewTrace()}:
		p.ctr.received.Inc()
		return nil
	case <-p.stop:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitWait decodes one raw upload and commits it inline. It returns the
// committed record (local sequence number assigned) once it is durable,
// ErrBadPayload when the upload does not decode, or the error that
// dropped it. This is the cluster ingest path: a node must not
// acknowledge a submission it could still lose.
func (p *Pipeline) SubmitWait(ctx context.Context, raw []byte) (store.Record, error) {
	if !p.admit() {
		return store.Record{}, ErrClosed
	}
	defer p.submitters.Done()
	p.ctr.received.Inc()
	u := rawUpload{raw: raw, trace: p.tracer.NewTrace()}
	t0 := time.Now()
	sub, err := p.decode(u)
	p.decodeDur.Observe(time.Since(t0).Seconds())
	if err != nil {
		return store.Record{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	var res BatchResult
	if err := p.commit(ctx, []Submission{sub}, []string{u.trace}, &res); err != nil {
		return store.Record{}, err
	}
	if len(res.Records) == 0 {
		return store.Record{}, errCommitFailed
	}
	return res.Records[0], nil
}

// Close gracefully shuts the pipeline down: intake stops (every front
// door returns ErrClosed), every admitted upload commits, then the
// committer exits. Safe to call more than once.
func (p *Pipeline) Close() {
	p.closeIntake()
	if p.started.Load() {
		<-p.drained
	}
}

// Counters returns a snapshot of the per-stage counters.
func (p *Pipeline) Counters() Counters { return p.ctr.snapshot() }

// aborting reports whether a hard shutdown is in progress.
func (p *Pipeline) aborting() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// groupCommitter drains the queue: it waits for one upload, takes
// whatever else is queued at that moment, up to maxGroup, and commits
// the group as one batch.
func (p *Pipeline) groupCommitter() {
	group := make([]rawUpload, 0, maxGroup)
	for u := range p.queue {
		group = append(group[:0], u)
	more:
		for len(group) < maxGroup {
			select {
			case u, ok := <-p.queue:
				if !ok {
					break more
				}
				group = append(group, u)
			default:
				break more
			}
		}
		if p.aborting() {
			p.ctr.aborted.Add(uint64(len(group)))
		} else {
			p.commitGroup(group)
		}
		clear(group) // release the payloads before the next wait
	}
}

// commitGroup decodes a group of queued uploads and commits the ones
// that decode as one batch.
func (p *Pipeline) commitGroup(group []rawUpload) {
	subs := make([]Submission, 0, len(group))
	traces := make([]string, 0, len(group))
	t0 := time.Now()
	for _, u := range group {
		if sub, err := p.decode(u); err == nil {
			subs = append(subs, sub)
			traces = append(traces, u.trace)
		}
	}
	p.decodeDur.Observe(time.Since(t0).Seconds())
	p.commit(context.Background(), subs, traces, &BatchResult{})
}

// decode parses and validates one JSON upload, counting and tracing the
// outcome.
func (p *Pipeline) decode(u rawUpload) (Submission, error) {
	t0 := time.Now()
	sub, err := Decode(u.raw)
	dur := time.Since(t0)
	if err != nil {
		p.ctr.decodeErrors.Inc()
		p.tracer.Emit(obs.Span{Trace: u.trace, Name: "decode", Err: err}, t0, dur)
		return sub, err
	}
	p.ctr.decoded.Inc()
	p.tracer.Emit(obs.Span{Trace: u.trace, Name: "decode", Device: sub.Device, Model: sub.Model}, t0, dur)
	return sub, nil
}

// commit is the one way a submission reaches the store. It evaluates
// each validated submission, commits the verdicts as one batch — through
// the WAL's group commit when one is configured — and counts them.
// Committed records land in res.Records, dropped ones in res.Failed.
// traces, when non-nil, holds each submission's trace ID for its filter,
// wal_append and store spans.
func (p *Pipeline) commit(ctx context.Context, subs []Submission, traces []string, res *BatchResult) error {
	t0 := time.Now()
	recs := make([]store.Record, len(subs))
	for i := range subs {
		if traces == nil {
			recs[i] = p.evaluate(subs[i])
			continue
		}
		ts := time.Now()
		recs[i] = p.evaluate(subs[i])
		p.tracer.Emit(obs.Span{Trace: traces[i], Name: "filter", Device: recs[i].Device, Model: recs[i].Model}, ts, time.Since(ts))
	}
	p.filterDur.Observe(time.Since(t0).Seconds())
	if len(recs) == 0 {
		return nil
	}

	// A hard shutdown or expired deadline before the commit drops the
	// batch's survivors, counted — never silently.
	err := ctx.Err()
	if p.aborting() {
		err = ErrClosed
	}
	if err != nil {
		p.ctr.aborted.Add(uint64(len(recs)))
		res.Failed += len(recs)
		return err
	}

	t0 = time.Now()
	if p.cfg.WAL != nil {
		// Append-before-store: the batch is fsynced into the log — which
		// assigns its sequence numbers — before it becomes visible. A
		// failed commit drops the batch (counted), never stores it:
		// acceptance must not outrun durability. The wal_append stage
		// covers the whole commit (fsynced append plus the store insert it
		// gates); the store stage that follows is the bookkeeping.
		ptrs := make([]*store.Record, len(recs))
		for i := range recs {
			ptrs[i] = &recs[i]
		}
		err := p.cfg.WAL.CommitBatch(ptrs)
		dur := time.Since(t0)
		p.walDur.Observe(dur.Seconds())
		p.spans(traces, "wal_append", recs, t0, dur, err)
		if err != nil {
			p.ctr.walFailed.Add(uint64(len(recs)))
			res.Failed += len(recs)
			return nil
		}
		p.ctr.walAppended.Add(uint64(len(recs)))
		t0 = time.Now()
	} else {
		for i := range recs {
			seq, err := p.cfg.Store.Put(recs[i])
			if err != nil {
				// Put checks only what validation already did, so this is a
				// bug; never lose count of the submissions.
				p.ctr.aborted.Add(uint64(len(recs) - i))
				res.Failed += len(recs) - i
				recs = recs[:i]
				break
			}
			recs[i].Seq = seq
		}
	}
	for i := range recs {
		if recs[i].Accepted {
			p.ctr.accepted.Inc()
		} else {
			p.ctr.rejected.Inc()
		}
	}
	p.ctr.stored.Add(uint64(len(recs)))
	dur := time.Since(t0)
	p.storeDur.Observe(dur.Seconds())
	p.spans(traces, "store", recs, t0, dur, nil)
	res.Records = recs
	return nil
}

// spans emits the named stage span, one start and duration for the
// whole batch, for each record of a traced batch; an untraced batch
// (traces nil) emits nothing.
func (p *Pipeline) spans(traces []string, name string, recs []store.Record, t0 time.Time, dur time.Duration, err error) {
	if traces == nil {
		return
	}
	for i := range recs {
		p.tracer.Emit(obs.Span{Trace: traces[i], Name: name, Device: recs[i].Device, Model: recs[i].Model, Seq: recs[i].Seq, Err: err}, t0, dur)
	}
}

// evaluate runs the backend's per-submission pass: ambient estimation
// followed by the strict filters.
func (p *Pipeline) evaluate(sub Submission) store.Record {
	rec := store.Record{
		Device: sub.Device,
		Model:  sub.Model,
		Score:  sub.Score,
	}
	est, accepted, err := p.cfg.Policy.Evaluate(sub.Readings())
	if err != nil {
		p.ctr.estimateFailures.Inc()
		rec.RejectReason = err.Error()
		return rec
	}
	p.ctr.evaluated.Inc()
	rec.EstimatedAmbient = est
	if !accepted {
		rec.RejectReason = fmt.Sprintf("estimated ambient %v outside [%v, %v]",
			est, p.cfg.Policy.AcceptLo, p.cfg.Policy.AcceptHi)
		return rec
	}
	rec.Accepted = true
	return rec
}

// Submission is the crowd app's upload payload — the wire format of
// POST /v1/submissions.
type Submission struct {
	// Device is the unit's anonymous identifier.
	Device string `json:"device"`
	// Model is the handset model, e.g. "Nexus 5".
	Model string `json:"model"`
	// Score is the ACCUBENCH performance score.
	Score float64 `json:"score"`
	// Cooldown is the cooldown sensor trace, in poll order.
	Cooldown []CooldownPoint `json:"cooldown"`
}

// CooldownPoint is one cooldown sensor poll on the wire.
type CooldownPoint struct {
	// AtSeconds is the time since the cooldown began, in seconds.
	AtSeconds float64 `json:"at_s"`
	// TempC is the sensor reading in °C.
	TempC float64 `json:"temp_c"`
}

// Readings converts the wire trace to the estimator's sample type.
func (s Submission) Readings() []accubench.CooldownSample {
	out := make([]accubench.CooldownSample, len(s.Cooldown))
	for i, p := range s.Cooldown {
		out[i] = accubench.CooldownSample{
			At:      time.Duration(p.AtSeconds * float64(time.Second)),
			Reading: units.Celsius(p.TempC),
		}
	}
	return out
}

// Validate checks the wire payload.
func (s Submission) Validate() error {
	if s.Device == "" {
		return fmt.Errorf("ingest: submission without device")
	}
	if s.Model == "" {
		return fmt.Errorf("ingest: submission without model")
	}
	if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) || s.Score <= 0 {
		return fmt.Errorf("ingest: implausible score %v", s.Score)
	}
	if len(s.Cooldown) == 0 {
		return fmt.Errorf("ingest: submission without cooldown trace")
	}
	for i, p := range s.Cooldown {
		if math.IsNaN(p.TempC) || math.IsInf(p.TempC, 0) || p.TempC < -50 || p.TempC > 150 {
			return fmt.Errorf("ingest: implausible cooldown reading %v at poll %d", p.TempC, i)
		}
		if i > 0 && p.AtSeconds <= s.Cooldown[i-1].AtSeconds {
			return fmt.Errorf("ingest: cooldown polls not increasing at %d", i)
		}
	}
	return nil
}

// Decode parses and validates one raw upload.
func Decode(raw []byte) (Submission, error) {
	var sub Submission
	if err := json.Unmarshal(raw, &sub); err != nil {
		return Submission{}, fmt.Errorf("ingest: %w", err)
	}
	if err := sub.Validate(); err != nil {
		return Submission{}, err
	}
	return sub, nil
}

// Marshal renders a benchmark result as the wire payload the app uploads.
func Marshal(device, model string, score float64, readings []accubench.CooldownSample) ([]byte, error) {
	sub := Submission{
		Device:   device,
		Model:    model,
		Score:    score,
		Cooldown: make([]CooldownPoint, len(readings)),
	}
	for i, r := range readings {
		sub.Cooldown[i] = CooldownPoint{
			AtSeconds: r.At.Seconds(),
			TempC:     float64(r.Reading),
		}
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(sub)
}
