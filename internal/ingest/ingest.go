// Package ingest is the crowd backend's submission pipeline: a bounded,
// staged worker pool that turns raw upload bytes into stored, filtered
// records.
//
// The pipeline has three stages connected by bounded channels:
//
//	decode   — parse and validate the JSON wire format
//	evaluate — estimate the ambient from the cooldown trace (Aitken
//	           extrapolation via crowd.Policy) and apply the strict filters
//	store    — commit the verdict (WAL append + fsync first, when
//	           durability is configured) and land it in the sharded
//	           store, whose commit also updates the model's sketch
//
// Each stage runs its own worker pool; an upload occupies exactly one
// worker per stage, so slow evaluation of one submission never blocks
// decoding of the next. The channels are bounded, which gives the HTTP
// layer natural backpressure: Submit blocks (up to its context deadline)
// when the pipeline is saturated instead of queueing without limit.
//
// Shutdown is graceful by default: Close stops intake, lets every enqueued
// submission drain through all three stages, then returns. Cancelling the
// Start context instead aborts promptly, dropping queued items (counted,
// never silent).
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

// Config parameterizes a Pipeline.
type Config struct {
	// Workers is the per-stage worker count (DefaultWorkers if <= 0).
	Workers int
	// QueueDepth is the capacity of each inter-stage channel
	// (DefaultQueueDepth if <= 0). Total in-flight bound is
	// 3*QueueDepth + 3*Workers.
	QueueDepth int
	// Policy is the per-submission acceptance policy.
	Policy crowd.Policy
	// Store receives the verdicts. Required.
	Store *store.Store
	// WAL, when non-nil, makes the store stage durable: every record is
	// committed — appended to the write-ahead log and fsynced, then
	// inserted into the store with its log-assigned sequence number —
	// instead of stored directly. This is the append-before-store commit
	// point: a record is never visible without being durable.
	WAL Committer
	// Obs is the metrics registry the pipeline's counters and per-stage
	// latency histograms register in. Nil gets a private registry, so
	// the pipeline is always instrumented; pass the service's registry
	// to expose the metrics on its scrape surface.
	Obs *obs.Registry
	// Tracer, when non-nil and enabled, emits one span per stage per
	// submission (decode, filter, wal_append, store), correlated by a
	// trace ID assigned at Submit — the reconstructible per-upload
	// timeline behind crowdd's -trace flag.
	Tracer *obs.Tracer
}

// Committer is the durability hook the store stage calls when a WAL is
// configured. Commit must make the record durable and visible in the
// store (setting its Seq) before returning; internal/wal.Persister is the
// production implementation.
type Committer interface {
	Commit(r *store.Record) (uint64, error)
}

// DefaultWorkers is the per-stage worker count for Config.Workers <= 0.
const DefaultWorkers = 4

// DefaultQueueDepth is the channel capacity for Config.QueueDepth <= 0.
const DefaultQueueDepth = 256

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

// rawUpload, decodedSub and verdict are the inter-stage envelopes: the
// payload plus the submission's trace ID (empty when tracing is off) and,
// for SubmitWait uploads, the completion channel every terminal path must
// resolve.
type rawUpload struct {
	raw   []byte
	trace string
	done  chan<- submitResult
}

type decodedSub struct {
	sub   Submission
	trace string
	done  chan<- submitResult
}

type verdict struct {
	rec   store.Record
	trace string
	done  chan<- submitResult
}

// submitResult is what a SubmitWait upload resolves to: the committed
// record (local sequence number assigned) or the error that dropped it.
type submitResult struct {
	rec store.Record
	err error
}

// resolve completes a SubmitWait upload. The channel is buffered and
// receives exactly one send, so this never blocks a worker.
func resolve(done chan<- submitResult, rec store.Record, err error) {
	if done != nil {
		done <- submitResult{rec: rec, err: err}
	}
}

// Pipeline is the staged ingestion worker pool. Create with New, launch
// with Start, feed with Submit, and stop with Close.
type Pipeline struct {
	cfg Config

	raw       chan rawUpload
	decoded   chan decodedSub
	evaluated chan verdict

	ctr    counters
	tracer *obs.Tracer
	// Per-stage latency histograms (ingest_stage_seconds), resolved once
	// so workers skip the vec lookup.
	decodeDur, filterDur, walDur, storeDur *obs.Histogram

	// Intake gate: Submit registers in submitters under mu; Close flips
	// closed, waits for registered submitters to finish, then closes raw.
	mu         sync.Mutex
	closed     bool
	submitters sync.WaitGroup

	stop      chan struct{} // closed on hard abort (Start ctx cancelled)
	stopOnce  sync.Once
	drained   chan struct{} // closed when the store stage finishes
	closeOnce sync.Once
	started   atomic.Bool
}

// New creates a pipeline. Start must be called before Submit.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("ingest: config needs a store")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
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
		raw:       make(chan rawUpload, cfg.QueueDepth),
		decoded:   make(chan decodedSub, cfg.QueueDepth),
		evaluated: make(chan verdict, cfg.QueueDepth),
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

// Start launches the stage workers. Cancelling ctx hard-aborts the
// pipeline: intake closes, queued items are dropped (counted in Aborted)
// and workers exit. For a graceful drain use Close instead.
func (p *Pipeline) Start(ctx context.Context) {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	var decodeWG, evalWG, storeWG sync.WaitGroup
	for i := 0; i < p.cfg.Workers; i++ {
		decodeWG.Add(1)
		go func() { defer decodeWG.Done(); p.decodeWorker() }()
		evalWG.Add(1)
		go func() { defer evalWG.Done(); p.evaluateWorker() }()
		storeWG.Add(1)
		go func() { defer storeWG.Done(); p.storeWorker() }()
	}
	// Stage cascade: when a stage's intake closes and its workers finish,
	// close the next stage's intake.
	go func() { decodeWG.Wait(); close(p.decoded) }()
	go func() { evalWG.Wait(); close(p.evaluated) }()
	go func() { storeWG.Wait(); close(p.drained) }()
	// Hard abort on context cancellation.
	go func() {
		select {
		case <-ctx.Done():
			p.abort()
		case <-p.drained:
		}
	}()
}

// abort stops intake and signals workers to drop queued items.
func (p *Pipeline) abort() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.closeIntake(false)
}

// closeIntake stops Submit and closes the raw channel once no Submit is
// mid-send. When wait is true it blocks until in-flight Submits return.
func (p *Pipeline) closeIntake(wait bool) {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	if wait {
		p.submitters.Wait()
		p.closeOnce.Do(func() { close(p.raw) })
		return
	}
	// Hard path: submitters unblock via p.stop; close raw after they
	// return, off the caller's goroutine.
	go func() {
		p.submitters.Wait()
		p.closeOnce.Do(func() { close(p.raw) })
	}()
}

// Submit feeds one raw upload into the pipeline. It blocks while the
// intake queue is full — backpressure — until ctx expires or the pipeline
// shuts down. The bytes are owned by the pipeline afterwards.
func (p *Pipeline) Submit(ctx context.Context, raw []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.submitters.Add(1)
	p.mu.Unlock()
	defer p.submitters.Done()

	select {
	case p.raw <- rawUpload{raw: raw, trace: p.tracer.NewTrace()}:
		p.ctr.received.Inc()
		return nil
	case <-p.stop:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitWait feeds one raw upload into the pipeline and blocks until the
// submission reaches a terminal state: durably committed (the record is
// returned with its local sequence number), rejected at decode
// (ErrBadPayload), or dropped by a failed commit or shutdown. This is the
// cluster ingest path: a node must not acknowledge a submission it could
// still lose, so the 202 waits for the commit instead of the enqueue.
func (p *Pipeline) SubmitWait(ctx context.Context, raw []byte) (store.Record, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return store.Record{}, ErrClosed
	}
	p.submitters.Add(1)
	p.mu.Unlock()
	defer p.submitters.Done()

	done := make(chan submitResult, 1)
	select {
	case p.raw <- rawUpload{raw: raw, trace: p.tracer.NewTrace(), done: done}:
		p.ctr.received.Inc()
	case <-p.stop:
		return store.Record{}, ErrClosed
	case <-ctx.Done():
		return store.Record{}, ctx.Err()
	}
	select {
	case res := <-done:
		return res.rec, res.err
	case <-ctx.Done():
		// The upload keeps flowing and will commit or drop on its own;
		// the caller just stops waiting.
		return store.Record{}, ctx.Err()
	case <-p.stop:
		return store.Record{}, ErrClosed
	}
}

// Close gracefully shuts the pipeline down: intake stops (Submit returns
// ErrClosed), every enqueued submission drains through all stages, then
// workers exit. Safe to call more than once.
func (p *Pipeline) Close() {
	p.closeIntake(true)
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

func (p *Pipeline) decodeWorker() {
	for item := range p.raw {
		if p.aborting() {
			p.ctr.aborted.Inc()
			resolve(item.done, store.Record{}, ErrClosed)
			continue
		}
		t0 := time.Now()
		sub, err := Decode(item.raw)
		dur := time.Since(t0)
		p.decodeDur.Observe(dur.Seconds())
		if err != nil {
			p.ctr.decodeErrors.Inc()
			p.tracer.Emit(obs.Span{Trace: item.trace, Name: "decode", Err: err}, t0, dur)
			resolve(item.done, store.Record{}, fmt.Errorf("%w: %v", ErrBadPayload, err))
			continue
		}
		p.ctr.decoded.Inc()
		p.tracer.Emit(obs.Span{Trace: item.trace, Name: "decode", Device: sub.Device, Model: sub.Model}, t0, dur)
		select {
		case p.decoded <- decodedSub{sub: sub, trace: item.trace, done: item.done}:
		case <-p.stop:
			p.ctr.aborted.Inc()
			resolve(item.done, store.Record{}, ErrClosed)
		}
	}
}

func (p *Pipeline) evaluateWorker() {
	for item := range p.decoded {
		if p.aborting() {
			p.ctr.aborted.Inc()
			resolve(item.done, store.Record{}, ErrClosed)
			continue
		}
		t0 := time.Now()
		rec := p.evaluate(item.sub)
		dur := time.Since(t0)
		p.filterDur.Observe(dur.Seconds())
		p.tracer.Emit(obs.Span{Trace: item.trace, Name: "filter", Device: rec.Device, Model: rec.Model}, t0, dur)
		select {
		case p.evaluated <- verdict{rec: rec, trace: item.trace, done: item.done}:
		case <-p.stop:
			p.ctr.aborted.Inc()
			resolve(item.done, store.Record{}, ErrClosed)
		}
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

func (p *Pipeline) storeWorker() {
	for item := range p.evaluated {
		if p.aborting() {
			p.ctr.aborted.Inc()
			resolve(item.done, store.Record{}, ErrClosed)
			continue
		}
		rec := item.rec
		t0 := time.Now()
		if p.cfg.WAL != nil {
			// Append-before-store: the record is fsynced into the log —
			// which assigns its sequence number — before it becomes
			// visible. A failed commit drops the record (counted), never
			// stores it: acceptance must not outrun durability. The
			// wal_append span covers the whole commit (fsynced append plus
			// the store insert it gates); the store span that follows is
			// the visibility bookkeeping.
			_, err := p.cfg.WAL.Commit(&rec)
			dur := time.Since(t0)
			p.walDur.Observe(dur.Seconds())
			p.tracer.Emit(obs.Span{Trace: item.trace, Name: "wal_append", Device: rec.Device, Model: rec.Model, Seq: rec.Seq, Err: err}, t0, dur)
			if err != nil {
				p.ctr.walFailed.Inc()
				resolve(item.done, store.Record{}, err)
				continue
			}
			p.ctr.walAppended.Inc()
			t0 = time.Now()
		} else if seq, err := p.cfg.Store.Put(rec); err != nil {
			// Validated at decode; a store rejection here is a bug, but
			// never lose count of the submission.
			p.tracer.Emit(obs.Span{Trace: item.trace, Name: "store", Device: rec.Device, Model: rec.Model, Err: err}, t0, time.Since(t0))
			p.ctr.aborted.Inc()
			resolve(item.done, store.Record{}, err)
			continue
		} else {
			rec.Seq = seq
		}
		if rec.Accepted {
			p.ctr.accepted.Inc()
		} else {
			p.ctr.rejected.Inc()
		}
		p.ctr.stored.Inc()
		dur := time.Since(t0)
		p.storeDur.Observe(dur.Seconds())
		p.tracer.Emit(obs.Span{Trace: item.trace, Name: "store", Device: rec.Device, Model: rec.Model, Seq: rec.Seq}, t0, dur)
		resolve(item.done, rec, nil)
	}
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
