// Package server is the crowd-benchmarking backend the paper sketches in
// §VI: the service behind the Play-Store app, accepting ACCUBENCH scores
// plus cooldown traces, estimating each submission's ambient server-side,
// applying the strict filters, and binning the surviving population per
// model.
//
// The HTTP JSON API:
//
//	POST /v1/submissions     — upload one benchmark run (202 on enqueue)
//	POST /v1/stream          — binary streaming batch ingest: a held-open
//	                           chunked POST carrying length-prefixed,
//	                           CRC-framed batch frames, acked per batch
//	                           (internal/wire; docs/WIRE.md)
//	GET  /v1/bins            — per-model bins folded from the store's
//	                           population sketches, current as of the
//	                           last commit (?model=M folds only M;
//	                           docs/BINNING.md)
//	GET  /v1/sketch?model=M  — the model's population sketch, canonical
//	                           binary encoding (mergeable; internal/stats)
//	GET  /v1/devices/{id}    — one device's latest verdict
//	GET  /healthz            — liveness + persistence/recovery status
//	GET  /metrics            — Prometheus text exposition: the pipeline,
//	                           store, binning and WAL counters plus
//	                           per-route, per-stage, fsync and lock-wait
//	                           latency histograms (internal/obs;
//	                           reference in docs/METRICS.md)
//
// Uploads flow through the ingest pipeline (internal/ingest: one
// validate → evaluate → group-commit path) and land in the sharded
// store, whose commit path also folds each record into its model's
// population sketch. A standalone JSON upload returns as soon as the
// pipeline admits the bytes; a stream batch is acked after its commit.
// There is no background binning: a bins read folds
// the model's sketch, O(cells), and caches the result until the next
// commit for that model, so every read is current and a repeated read is
// a cache hit.
//
// With Config.DataDir set the store is durable: each record commits
// through internal/wal's segmented write-ahead log before becoming
// visible, a background snapshotter checkpoints the store and compacts
// the log, and New recovers the previous state on boot — the submission
// corpus survives crashes and deploys, which is what lets §VI's bins
// sharpen across sessions.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/hlc"
	"accubench/internal/ingest"
	"accubench/internal/obs"
	"accubench/internal/replication"
	"accubench/internal/store"
	"accubench/internal/wal"
	"accubench/internal/wire"
)

// Config parameterizes the backend.
type Config struct {
	// Shards is the store's stripe width (store.DefaultShards if <= 0).
	Shards int
	// QueueDepth bounds the ingest queue of admitted JSON uploads.
	QueueDepth int
	// Policy is the per-submission acceptance policy (crowd.DefaultPolicy
	// if zero).
	Policy crowd.Policy
	// MaxK bounds the discovered bin count per model.
	MaxK int
	// SubmitTimeout bounds how long a saturated POST /v1/submissions may
	// block before returning 503 (default 2 s).
	SubmitTimeout time.Duration
	// MaxBodyBytes caps upload size (default 1 MiB).
	MaxBodyBytes int64
	// DataDir, when non-empty, makes the store durable: submissions
	// commit through a write-ahead log in this directory before becoming
	// visible, a background snapshotter checkpoints the store, and New
	// recovers the previous state (snapshot + log replay) on boot. Empty
	// keeps the store purely in-memory.
	DataDir string
	// FsyncEvery is the WAL's group-commit window; <= 0 fsyncs every
	// commit synchronously. Only meaningful with DataDir set.
	FsyncEvery time.Duration
	// SnapshotEvery is how many commits accumulate between background
	// snapshots (wal.DefaultSnapshotEvery if <= 0).
	SnapshotEvery int
	// SegmentBytes is the WAL's segment-rotation threshold
	// (wal.DefaultSegmentBytes if <= 0).
	SegmentBytes int64
	// FsyncDelay, when non-nil, runs before every WAL fsync — the
	// slow-disk injection seam used by internal/chaos and crowdd's
	// -chaos-fsync-delay flag. Only meaningful with DataDir set.
	FsyncDelay func()
	// TraceWriter, when non-nil, enables per-upload tracing: every JSON
	// upload emits one JSON span per ingest step
	// (decode→filter→wal_append→store) to this writer, correlated by a
	// trace ID — crowdd's -trace flag wires it to stdout.
	TraceWriter io.Writer
	// Cluster, when non-nil, runs this node as one member of a
	// replicated, sharded cluster: submissions are HLC-stamped and
	// routed to their model's shard primary, commits wait for a replica
	// acknowledgement, and an anti-entropy loop keeps the nodes
	// converged (docs/CLUSTER.md).
	Cluster *ClusterConfig
}

// Server owns the store, the ingest pipeline and the bins reader, and
// serves the HTTP API over them.
type Server struct {
	cfg      Config
	store    *store.Store
	pipe     *ingest.Pipeline
	binner   *Binner
	mux      *http.ServeMux
	pers     *wal.Persister // nil when DataDir is empty
	recovery wal.Recovery

	// Cluster-mode members, all nil on a standalone node.
	clock      *hlc.Clock
	repl       *replication.Replicator
	rmet       *obs.ReplicationMetrics
	committer  *clusterCommitter
	peerClient *http.Client

	reg              *obs.Registry
	httpReqs         *obs.CounterVec
	httpDur          *obs.HistogramVec
	wmet             *obs.WireMetrics
	unsupportedMedia *obs.Counter
}

// New assembles the backend. Call Start before serving, Close to shut
// down gracefully.
func New(cfg Config) (*Server, error) {
	if cfg.Policy == (crowd.Policy{}) {
		cfg.Policy = crowd.DefaultPolicy()
	}
	if cfg.SubmitTimeout <= 0 {
		cfg.SubmitTimeout = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	// One registry for the whole stack: every component registers its
	// counters and histograms here, and GET /metrics renders it. The
	// store is instrumented before the WAL opens so boot recovery's
	// restores already move the shard gauges.
	reg := obs.NewRegistry("crowdd_")
	st := store.New(cfg.Shards)
	st.Instrument(reg)
	var pers *wal.Persister
	var recovery wal.Recovery
	if cfg.DataDir != "" {
		var err error
		pers, recovery, err = wal.Open(wal.PersistConfig{
			Dir:           cfg.DataDir,
			SegmentBytes:  cfg.SegmentBytes,
			FlushEvery:    cfg.FsyncEvery,
			SnapshotEvery: cfg.SnapshotEvery,
			Obs:           reg,
			FsyncDelay:    cfg.FsyncDelay,
		}, st)
		if err != nil {
			return nil, err
		}
	}
	binner := NewBinner(BinnerConfig{Store: st, MaxK: cfg.MaxK, Obs: reg})
	s := &Server{cfg: cfg, store: st, binner: binner, mux: http.NewServeMux(), pers: pers, recovery: recovery, reg: reg}
	icfg := ingest.Config{
		QueueDepth: cfg.QueueDepth,
		Policy:     cfg.Policy,
		Store:      st,
		Obs:        reg,
		Tracer:     obs.NewTracer(cfg.TraceWriter),
	}
	if pers != nil {
		icfg.WAL = pers
	}
	if cfg.Cluster != nil {
		// The cluster committer wraps the WAL (or the bare store) with
		// HLC stamping; the pipeline commits through it so every record
		// carries its cluster-wide identity before it is durable.
		if err := s.initCluster(); err != nil {
			if pers != nil {
				pers.Close()
			}
			return nil, err
		}
		icfg.WAL = s.committer
	}
	pipe, err := ingest.New(icfg)
	if err != nil {
		if pers != nil {
			pers.Close()
		}
		return nil, err
	}
	s.pipe = pipe
	s.registerGauges()
	s.httpReqs = reg.CounterVec("http_requests_total", "requests served per route", "route")
	s.httpDur = reg.HistogramVec("http_request_seconds", "request latency per route", "route", obs.DurationBuckets)
	s.wmet = obs.NewWireMetrics(reg)
	s.unsupportedMedia = reg.Counter("http_unsupported_media_total", "uploads refused with 415 for an unexpected Content-Type")
	s.route("POST /v1/submissions", s.handleSubmit)
	s.route("POST "+wire.StreamPath, s.handleStream)
	s.route("GET /v1/bins", s.handleBins)
	s.route("GET /v1/sketch", s.handleSketch)
	s.route("GET /v1/devices/{id}", s.handleDevice)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	if cfg.Cluster != nil {
		s.registerClusterRoutes()
	}
	return s, nil
}

// route mounts a handler behind the per-route middleware: a request
// counter and a duration histogram, labeled by the route pattern.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	reqs := s.httpReqs.With(pattern)
	dur := s.httpDur.With(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		dur.Observe(time.Since(t0).Seconds())
		reqs.Inc()
	})
}

// registerGauges bridges the counters owned outside the registry — the
// binner, the store's aggregates, the WAL's activity and the boot
// recovery report — preserving every metric name the service has
// exposed since it first served /metrics.
func (s *Server) registerGauges() {
	s.reg.Func("bin_recomputes_total", "per-model bin recomputes", "counter", s.binner.Recomputes)
	s.reg.Func("store_records", "records held across all models", "gauge",
		func() uint64 { return uint64(s.store.Len()) })
	s.reg.Func("store_accepted_records", "stored records that survived the filters", "gauge",
		func() uint64 { return uint64(s.store.AcceptedLen()) })
	s.reg.Func("store_models", "distinct models with at least one record", "gauge",
		func() uint64 { return uint64(len(s.store.Models())) })
	if s.clock != nil {
		s.reg.Func("hlc_clamped_total", "remote HLC stamps truncated by the drift clamp", "counter",
			s.clock.Clamped)
	}
	if s.pers == nil {
		return
	}
	pc := func(read func(wal.PersistCounters) uint64) func() uint64 {
		return func() uint64 { return read(s.pers.Counters()) }
	}
	s.reg.Func("wal_appends_total", "records appended to the log this session", "counter",
		pc(func(c wal.PersistCounters) uint64 { return c.Log.Appends }))
	s.reg.Func("wal_fsyncs_total", "fsync calls (group commit batches appends)", "counter",
		pc(func(c wal.PersistCounters) uint64 { return c.Log.Fsyncs }))
	s.reg.Func("wal_bytes_total", "bytes appended, framing included", "counter",
		pc(func(c wal.PersistCounters) uint64 { return c.Log.Bytes }))
	s.reg.Func("wal_segments", "live segment files", "gauge",
		pc(func(c wal.PersistCounters) uint64 { return uint64(c.Log.Segments) }))
	s.reg.Func("wal_last_seq", "highest sequence number appended", "gauge",
		pc(func(c wal.PersistCounters) uint64 { return c.Log.LastSeq }))
	s.reg.Func("wal_snapshots_total", "snapshots cut this session", "counter",
		pc(func(c wal.PersistCounters) uint64 { return c.Snapshots }))
	s.reg.Func("wal_snapshot_failures_total", "background snapshot attempts that failed", "counter",
		pc(func(c wal.PersistCounters) uint64 { return c.SnapshotFailures }))
	s.reg.Func("wal_last_snapshot_seq", "sequence number the newest snapshot covers", "gauge",
		pc(func(c wal.PersistCounters) uint64 { return c.LastSnapshotSeq }))
	s.reg.Func("wal_restored_records", "records rebuilt by boot recovery", "gauge",
		func() uint64 { return uint64(s.recovery.Restored) })
	s.reg.Func("wal_restored_accepted_records", "restored records carrying an accepted verdict", "gauge",
		func() uint64 { return uint64(s.recovery.RestoredAccepted) })
	s.reg.Func("wal_replayed_total", "log-tail records replayed after the snapshot", "gauge",
		func() uint64 { return uint64(s.recovery.Replayed) })
}

// Start launches the ingest committers and, in cluster mode, the
// replicator. Bins need no start: recovery rebuilt the store's sketches,
// so the first read after New already counts every recovered record.
func (s *Server) Start(ctx context.Context) {
	s.pipe.Start(ctx)
	if s.repl != nil {
		s.repl.Start()
	}
}

// Close shuts down gracefully, in durability order: drain the pipeline
// (every admitted submission commits), then flush the WAL and cut a
// final snapshot — so a clean shutdown never needs replay on the next
// boot.
func (s *Server) Close() error {
	s.pipe.Close()
	if s.repl != nil {
		// After the drain: stop shipping and reconciling. Whatever a
		// peer has not received yet is repaired by its anti-entropy
		// pull on our next boot.
		s.repl.Close()
	}
	if s.pers != nil {
		return s.pers.Close()
	}
	return nil
}

// Crash simulates a hard process kill for crash-recovery tests: the
// replicator stops, and the WAL is abandoned without the final flush or
// snapshot. Records whose commit completed are already durable — exactly
// the set a real kill -9 would preserve. The caller hard-aborts the
// pipeline by cancelling the Start context.
func (s *Server) Crash() {
	if s.repl != nil {
		s.repl.Close()
	}
	if s.pers != nil {
		s.pers.Crash()
	}
}

// Recovery reports what boot recovery restored from the data dir; ok is
// false when the server runs in-memory.
func (s *Server) Recovery() (wal.Recovery, bool) {
	return s.recovery, s.pers != nil
}

// PersistCounters exposes the WAL's activity counters; ok is false when
// the server runs in-memory.
func (s *Server) PersistCounters() (wal.PersistCounters, bool) {
	if s.pers == nil {
		return wal.PersistCounters{}, false
	}
	return s.pers.Counters(), true
}

// Handler returns the API handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the submission store (load generators, tests).
func (s *Server) Store() *store.Store { return s.store }

// Counters exposes the ingest pipeline's counters.
func (s *Server) Counters() ingest.Counters { return s.pipe.Counters() }

// Registry exposes the metrics registry backing GET /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Binner exposes the bins reader behind GET /v1/bins.
func (s *Server) Binner() *Binner { return s.binner }

// submitResponse is the POST /v1/submissions reply body.
type submitResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); !isJSONContent(ct) {
		s.unsupportedMedia.Inc()
		writeJSON(w, http.StatusUnsupportedMediaType, submitResponse{
			Status: "rejected",
			Error:  "POST /v1/submissions takes application/json; binary frames go to " + wire.StreamPath,
		})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, submitResponse{Status: "rejected", Error: "body too large"})
		return
	}
	if s.repl != nil {
		s.handleClusterSubmit(w, r, body)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SubmitTimeout)
	defer cancel()
	switch err := s.pipe.Submit(ctx, body); {
	case err == nil:
		writeJSON(w, http.StatusAccepted, submitResponse{Status: "queued"})
	case errors.Is(err, ingest.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, submitResponse{Status: "shutting down", Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		// Saturated: the client should retry with backoff.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, submitResponse{Status: "overloaded", Error: "ingest queue full"})
	default:
		writeJSON(w, http.StatusServiceUnavailable, submitResponse{Status: "error", Error: err.Error()})
	}
}

// binsResponse is the GET /v1/bins reply body.
type binsResponse struct {
	Models []ModelBins `json:"models"`
}

// handleBins serves every model's bins, or with ?model=M only M's — a
// one-model read folds only that model's sketch.
func (s *Server) handleBins(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		writeJSON(w, http.StatusOK, binsResponse{Models: s.binner.Bins()})
		return
	}
	mb, ok := s.binner.ModelBins(model)
	if !ok {
		http.Error(w, fmt.Sprintf("no bins for model %q", model), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, binsResponse{Models: []ModelBins{mb}})
}

// sketchContentType is the GET /v1/sketch media type: the canonical
// binary sketch encoding (stats.DecodeBinSketch reads it back).
const sketchContentType = "application/x-accubench-sketch"

// handleSketch serves one model's population sketch in its canonical
// binary encoding — the transfer a peer, dashboard or offline analysis
// merges with stats.BinSketch.Merge.
func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		http.Error(w, "missing ?model=", http.StatusBadRequest)
		return
	}
	enc, ok := s.store.SketchBinary(model)
	if !ok {
		http.Error(w, fmt.Sprintf("no sketch for model %q", model), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", sketchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(enc)))
	w.Write(enc)
}

func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Device(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no submission from device %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	if s.pers == nil {
		fmt.Fprintln(w, "persistence: disabled")
		return
	}
	fmt.Fprintf(w, "persistence: %s\n", s.cfg.DataDir)
	rec := s.recovery
	fmt.Fprintf(w, "recovery: restored %d records (snapshot seq %d holding %d, wal replayed %d), truncated %d torn bytes\n",
		rec.Restored, rec.SnapshotSeq, rec.SnapshotRecords, rec.Replayed, rec.TruncatedBytes)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
