package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"accubench/internal/accubench"
	"accubench/internal/crowd"
	"accubench/internal/device"
	"accubench/internal/experiments"
	"accubench/internal/fleetsim"
	"accubench/internal/ingest"
	"accubench/internal/monsoon"
	"accubench/internal/server"
	"accubench/internal/silicon"
	"accubench/internal/soc"
	"accubench/internal/store"
	"accubench/internal/wal"
	"accubench/internal/wire"
)

// Traced-run sizes, per second of run length like the workloads'.
const (
	// codecPerSec submissions go through the codecs, Validate and
	// Evaluate.
	codecPerSec = 1000
	// bulkPerSec submissions are committed through the WAL back to back.
	bulkPerSec = 2000
	// pacedShare is the part of the run each paced section lasts, and
	// pacedWorkers its concurrent streams, as many as the workloads use.
	pacedShare   = 0.15
	pacedWorkers = 2
	// replPerSec submissions are shipped to a replica.
	replPerSec = 200
	// layerReps repeats the calls timed once per run (snapshot copy,
	// recovery, study, iteration) to report a median.
	layerReps = 3
	// stepSpans and the steps per span size the simulator sections.
	stepSpans    = 20
	thermalSteps = 10000
	deviceSteps  = 1000
	cohortSize   = 8192
	cohortSpans  = 30
)

// noSnapshots keeps a persister's background snapshotter from firing, so
// the traced run decides when snapshots happen and times them itself.
const noSnapshots = math.MaxInt32

// persistConfig is crowdd's default WAL on dir — group commits every
// wal.DefaultFlushEvery — except that snapshots are left to the caller.
func persistConfig(dir string) wal.PersistConfig {
	return wal.PersistConfig{Dir: dir, FlushEvery: wal.DefaultFlushEvery, SnapshotEvery: noSnapshots}
}

// daemonConfig is the server configuration crowdd's flag defaults
// produce, durable on dir, so in-process and daemon numbers compare.
func daemonConfig(dir string) server.Config {
	return server.Config{DataDir: dir, FsyncEvery: wal.DefaultFlushEvery}
}

// layers is the traced run: each section sends the workload's inputs
// through one stretch of the stack, in-process, timing each public call
// as a span.
type layers struct {
	e      *runEnv
	tr     *tracer
	policy crowd.Policy
	// rate paces the transport sections at the workload's offered load.
	rate float64
	late []time.Duration
}

func runTrace(e *runEnv, rate float64) error {
	l := &layers{e: e, tr: newTracer(), policy: crowd.DefaultPolicy(), rate: rate}
	for _, section := range []func() error{l.codec, l.pipeline, l.bulk, l.inProcess, l.daemon, l.replication, l.simulator} {
		if err := section(); err != nil {
			return err
		}
	}
	if err := l.report(); err != nil {
		return err
	}
	path := filepath.Join(e.cfg.Out, e.cfg.Workload+".trace.json")
	e.logf("spans written to %s", path)
	return l.tr.write(path, e.cfg.Workload, e.cfg.Seed)
}

// batches splits n items into consecutive batches of at most batchK.
func batches(n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += batchK {
		out = append(out, [2]int{lo, min(lo+batchK, n)})
	}
	return out
}

// evaluate turns submissions into the records ingest would store.
func (l *layers) evaluate(subs []wire.Submission) []store.Record {
	recs := make([]store.Record, len(subs))
	for i, s := range subs {
		recs[i] = store.Record{Device: s.Device, Model: s.Model, Score: s.Score}
		est, ok, err := l.policy.Evaluate(toIngest(s).Readings())
		if err != nil {
			recs[i].RejectReason = err.Error()
			continue
		}
		recs[i].EstimatedAmbient, recs[i].Accepted = est, ok
	}
	return recs
}

// codec times the per-submission calls a batch meets before it commits:
// the wire decode, the JSON decode the other route uses, validation, and
// the ambient estimate and filter.
func (l *layers) codec() error {
	subs := l.e.inputs.Take(l.e.seconds(codecPerSec), "codec")
	bodies, err := jsonBodies(subs)
	if err != nil {
		return err
	}
	accepted := 0
	var roundTrip error
	for b, r := range batches(len(subs)) {
		batch := subs[r[0]:r[1]]
		frame, err := wire.AppendBatchFrame(nil, uint64(b+1), batch)
		if err != nil {
			return err
		}
		var decoded []wire.Submission
		if err := l.tr.timed("wire.decode", 0, b, len(batch), func() error {
			fr, _, err := wire.DecodeFrame(frame)
			if err != nil {
				return err
			}
			decoded, err = wire.DecodeSubmissions(fr)
			return err
		}); err != nil {
			return err
		}
		if !reflect.DeepEqual(decoded, batch) && roundTrip == nil {
			roundTrip = fmt.Errorf("batch %d decoded differently than it was encoded", b)
		}
		if err := l.tr.timed("ingest.decode_json", 0, b, len(batch), func() error {
			for _, body := range bodies[r[0]:r[1]] {
				if _, err := ingest.Decode(body); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		isubs := make([]ingest.Submission, len(decoded))
		readings := make([][]accubench.CooldownSample, len(decoded))
		for i, s := range decoded {
			isubs[i] = toIngest(s)
			readings[i] = isubs[i].Readings()
		}
		if err := l.tr.timed("ingest.validate", 0, b, len(batch), func() error {
			for _, s := range isubs {
				if err := s.Validate(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		l.tr.timed("crowd.evaluate", 0, b, len(batch), func() error {
			for _, r := range readings {
				if _, ok, err := l.policy.Evaluate(r); err == nil && ok {
					accepted++
				}
			}
			return nil
		})
	}
	l.e.check("codec.wire_roundtrip", roundTrip)
	l.e.count(len(subs), 0)
	l.e.report("crowd.accept_ratio", float64(accepted)/float64(len(subs)), len(subs))
	return nil
}

// timedCommitter is the pipeline's ingest.Config.WAL during the traced
// run: it forwards to the persister and records each commit as a child
// of the submit span it serves.
type timedCommitter struct {
	p  *wal.Persister
	tr *tracer
	// submits maps a batch's first device ID to its submit span's ID and
	// trace, so a commit made inside SubmitBatch finds its parent.
	submits sync.Map
}

func (c *timedCommitter) begin(device string, n int) int {
	v, _ := c.submits.Load(device)
	parent, _ := v.([2]int)
	return c.tr.begin("wal.commit", parent[0], parent[1], n)
}

func (c *timedCommitter) Commit(r *store.Record) (uint64, error) {
	id := c.begin(r.Device, 1)
	defer c.tr.end(id)
	return c.p.Commit(r)
}

func (c *timedCommitter) CommitBatch(recs []*store.Record) error {
	id := c.begin(recs[0].Device, len(recs))
	defer c.tr.end(id)
	return c.p.CommitBatch(recs)
}

// pipeline paces the workload's rate through the server side of a
// stream batch, without HTTP: frame decode, then Pipeline.SubmitBatch
// committing through a durable persister.
func (l *layers) pipeline() error {
	dir, err := l.e.tempDir("pipeline")
	if err != nil {
		return err
	}
	st := store.New(0)
	pers, _, err := wal.Open(persistConfig(dir), st)
	if err != nil {
		return err
	}
	tc := &timedCommitter{p: pers, tr: l.tr}
	pipe, err := ingest.New(ingest.Config{Policy: l.policy, Store: st, WAL: tc})
	if err != nil {
		pers.Close()
		return err
	}
	subs := l.e.inputs.Take(l.e.seconds(l.rate*pacedShare), "paced")
	var batchNo atomic.Int64
	send := func(_ int, items []int) error {
		b := int(batchNo.Add(1))
		batch := make([]wire.Submission, len(items))
		for i, it := range items {
			batch[i] = subs[it]
		}
		frame, err := wire.AppendBatchFrame(nil, uint64(b), batch)
		if err != nil {
			return err
		}
		root := l.tr.begin("pipeline.batch", 0, b, len(batch))
		defer l.tr.end(root)
		fr, _, err := wire.DecodeFrame(frame)
		if err != nil {
			return err
		}
		ws, err := wire.DecodeSubmissions(fr)
		if err != nil {
			return err
		}
		isubs := make([]ingest.Submission, len(ws))
		for i, s := range ws {
			isubs[i] = toIngest(s)
		}
		id := l.tr.begin("ingest.submit_batch", root, b, len(isubs))
		tc.submits.Store(isubs[0].Device, [2]int{id, b})
		res, err := pipe.SubmitBatch(l.e.ctx, isubs)
		l.tr.end(id)
		if err != nil {
			return err
		}
		if len(res.Records) != len(isubs) {
			return fmt.Errorf("batch %d: %d of %d committed", b, len(res.Records), len(isubs))
		}
		return nil
	}
	out := OpenLoop(l.e.ctx, time.Now(), l.e.arrivals(len(subs), l.rate, "paced"), pacedWorkers, batchK, send)
	pipe.Close()
	c := pers.Counters()
	if err := pers.Close(); err != nil {
		return err
	}
	l.late = append(l.late, out.Late...)
	l.e.count(len(subs), out.Failed)
	done := len(subs) - out.Failed
	l.e.report("wal.fsyncs_per_ksub", float64(c.Log.Fsyncs)/(float64(done)/1000), done)
	l.e.report("wal.write_bytes_per_sub", float64(c.Log.Bytes)/float64(done), done)
	return nil
}

// bulk commits the inputs back to back through a persister that
// snapshots every wal.DefaultSnapshotEvery records, as crowdd does, and
// times the calls whose cost grows with the corpus: snapshots, the store
// copy they take, recovery after a crash, and the bin recompute.
func (l *layers) bulk() error {
	subs := l.e.inputs.Take(l.e.seconds(bulkPerSec), "bulk")
	recs := l.evaluate(subs)
	dir, err := l.e.tempDir("bulk")
	if err != nil {
		return err
	}
	st := store.New(0)
	pers, _, err := wal.Open(persistConfig(dir), st)
	if err != nil {
		return err
	}
	parallel := store.New(0)
	since := 0
	all := batches(len(recs))
	for b, r := range all {
		ptrs := make([]*store.Record, 0, r[1]-r[0])
		for i := r[0]; i < r[1]; i++ {
			ptrs = append(ptrs, &recs[i])
		}
		if err := l.tr.timed("bulk.commit", 0, b, len(ptrs), func() error { return pers.CommitBatch(ptrs) }); err != nil {
			pers.Close()
			return err
		}
		// The same records, sequence numbers assigned, into a store of
		// their own: the store's share of a commit, alone.
		if err := l.tr.timed("store.put_batch", 0, b, len(ptrs), func() error { return parallel.PutSeqBatch(recs[r[0]:r[1]]) }); err != nil {
			pers.Close()
			return err
		}
		// A run too short to reach the snapshot interval still times one
		// snapshot, after its last batch.
		if since += len(ptrs); since >= wal.DefaultSnapshotEvery || b == len(all)-1 && len(recs) < wal.DefaultSnapshotEvery {
			since = 0
			if err := l.tr.timed("wal.snapshot", 0, b, st.Len(), pers.Snapshot); err != nil {
				pers.Close()
				return err
			}
		}
	}
	l.e.count(len(recs), 0)
	for r := 0; r < layerReps; r++ {
		l.tr.timed("store.snapshot_copy", 0, r, st.Len(), func() error {
			st.Snapshot()
			return nil
		})
	}
	pers.Crash()
	var restored error
	for r := 0; r < layerReps; r++ {
		var p *wal.Persister
		var rec wal.Recovery
		if err := l.tr.timed("wal.recover", 0, r, len(recs), func() error {
			var err error
			p, rec, err = wal.Open(persistConfig(dir), store.New(0))
			return err
		}); err != nil {
			return err
		}
		p.Crash()
		if rec.Restored != len(recs) && restored == nil {
			restored = fmt.Errorf("recovery restored %d of %d records", rec.Restored, len(recs))
		}
	}
	l.e.check("bulk.recovered", restored)

	exact := server.NewBinner(server.BinnerConfig{Store: st, Mode: server.BinModeExact})
	for i, m := range Models {
		if err := l.tr.timed("server.bins_recompute", 0, i, len(st.Model(m)), func() error {
			if mb := exact.Refresh(m); mb.BinCount < 1 {
				return fmt.Errorf("no bins for %s", m)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	// A sketch-mode read right after a commit: the first read of a new
	// sketch revision folds it.
	sketch := server.NewBinner(server.BinnerConfig{Store: st, Mode: server.BinModeSketch})
	fresh := l.evaluate(l.e.inputs.Take(layerReps*len(Models), "sketch"))
	for i, rec := range fresh {
		if _, err := st.Put(rec); err != nil {
			return err
		}
		if err := l.tr.timed("server.bins_sketch_read", 0, i, 1, func() error {
			if _, ok := sketch.ModelBins(rec.Model); !ok {
				return fmt.Errorf("no sketch bins for %s", rec.Model)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// pacedStream paces the workload's rate over pacedWorkers streams to
// base, one span per batch, and returns how many submissions were
// acknowledged. Every paced section sends the same submissions on the
// same schedule, so their spans compare.
func (l *layers) pacedStream(base, name string) (int, error) {
	subs := l.e.inputs.Take(l.e.seconds(l.rate*pacedShare), "paced")
	bases := make([]string, pacedWorkers)
	for i := range bases {
		bases[i] = base
	}
	s, err := newStreamSender(bases, subs)
	if err != nil {
		return 0, err
	}
	defer s.close()
	var batchNo atomic.Int64
	out := OpenLoop(l.e.ctx, time.Now(), l.e.arrivals(len(subs), l.rate, "paced"), pacedWorkers, batchK, func(w int, items []int) error {
		return l.tr.timed(name, 0, int(batchNo.Add(1)), len(items), func() error { return s.send(w, items) })
	})
	if out.Failed > 0 {
		l.e.logf("%s: %d submissions failed, first: %v", name, out.Failed, s.errs.get())
	}
	l.late = append(l.late, out.Late...)
	l.e.count(len(subs), out.Failed)
	return len(subs) - out.Failed, nil
}

// inProcess runs the paced stream against server.New's handler on an
// httptest listener, durable like the daemon.
func (l *layers) inProcess() error {
	dir, err := l.e.tempDir("inproc")
	if err != nil {
		return err
	}
	srv, err := server.New(daemonConfig(dir))
	if err != nil {
		return err
	}
	srv.Start(context.Background())
	hs := httptest.NewServer(srv.Handler())
	_, err = l.pacedStream(hs.URL, "server.stream_do")
	hs.Close()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// daemon runs the same paced stream against a crowdd process, and
// reports the CPU time the process spent per submission.
func (l *layers) daemon() error {
	d, _, err := l.e.freshDaemon()
	if err != nil {
		return err
	}
	defer d.kill()
	c0, err := d.cpu()
	if err != nil {
		return err
	}
	n, err := l.pacedStream(d.url, "daemon.stream_do")
	if err != nil {
		return err
	}
	c1, err := d.cpu()
	if err != nil {
		return err
	}
	l.e.report("server.cpu_us_per_sub", float64(c1-c0)/float64(time.Microsecond)/float64(n), n)
	return nil
}

// countingTransport counts the body bytes a client sends and receives.
type countingTransport struct {
	rt http.RoundTripper
	n  atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		c.n.Add(req.ContentLength)
	}
	resp, err := c.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// replication ships stamped records from one node of an in-process
// two-node cluster to the other with Replicator.ShipWaitBatch, which
// returns once the peer has acknowledged every record.
func (l *layers) replication() error {
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		lns[i] = ln
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	counter := &countingTransport{rt: transport}
	var srvs [2]*server.Server
	for i := range srvs {
		dir, err := l.e.tempDir("repl")
		if err != nil {
			return err
		}
		cc := &server.ClusterConfig{
			NodeID: fmt.Sprintf("n%d", i+1),
			Peers:  map[string]string{fmt.Sprintf("n%d", 2-i): "http://" + lns[1-i].Addr().String()},
			// Only shipping traffic is counted: anti-entropy stays idle.
			ReconcileInterval: time.Hour,
		}
		if i == 0 {
			cc.Client = &http.Client{Transport: counter, Timeout: 10 * time.Second}
		}
		cfg := daemonConfig(dir)
		cfg.Cluster = cc
		srv, err := server.New(cfg)
		if err != nil {
			return err
		}
		srv.Start(context.Background())
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		defer func() {
			hs.Close()
			srv.Close()
		}()
		srvs[i] = srv
	}
	repl := srvs[0].Replicator()
	recs := l.evaluate(l.e.inputs.Take(l.e.seconds(replPerSec), "repl"))
	for i := range recs {
		repl.Stamp(&recs[i])
	}
	counter.n.Store(0)
	for b, r := range batches(len(recs)) {
		if err := l.tr.timed("replication.ship", 0, b, r[1]-r[0], func() error { return repl.ShipWaitBatch(recs[r[0]:r[1]]) }); err != nil {
			return err
		}
	}
	l.e.count(len(recs), 0)
	l.e.report("replication.bytes_per_sub", float64(counter.n.Load())/float64(len(recs)), len(recs))
	var applied error
	if n := srvs[1].Store().Len(); n != len(recs) {
		applied = fmt.Errorf("peer holds %d of %d shipped records", n, len(recs))
	}
	l.e.check("replication.applied", applied)
	return nil
}

// simulator times the paper reproduction's layers: the thermal network
// step, the device step, one cold model study, one quick ACCUBENCH
// iteration and the fleet engine's cohort step.
func (l *layers) simulator() error {
	nw, die, _, err := soc.Nexus5().Body.Build(26)
	if err != nil {
		return err
	}
	for r := 0; r < stepSpans; r++ {
		if err := l.tr.timed("thermal.step", 0, r, thermalSteps, func() error {
			for i := 0; i < thermalSteps; i++ {
				if err := nw.Inject(die, 5); err != nil {
					return err
				}
				nw.Step(100 * time.Millisecond)
			}
			return nil
		}); err != nil {
			return err
		}
	}

	dev, _, err := benchDevice(l.e.cfg.Seed)
	if err != nil {
		return err
	}
	dev.StartWorkload()
	for r := 0; r < stepSpans; r++ {
		if err := l.tr.timed("device.step", 0, r, deviceSteps, func() error {
			for i := 0; i < deviceSteps; i++ {
				if err := dev.Step(100 * time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	for r := 0; r < layerReps; r++ {
		experiments.ResetStudyCache()
		if err := l.tr.timed("experiments.study_cold", 0, r, 1, func() error {
			_, err := experiments.Study("Nexus 5", experiments.Options{Seed: l.e.cfg.Seed})
			return err
		}); err != nil {
			return err
		}
		dev, mon, err := benchDevice(l.e.cfg.Seed + int64(r))
		if err != nil {
			return err
		}
		cfg := accubench.DefaultConfig(accubench.Unconstrained)
		cfg.Warmup = 30 * time.Second
		cfg.Workload = time.Minute
		cfg.Iterations = 1
		if err := l.tr.timed("accubench.iteration", 0, r, 1, func() error {
			_, err := (&accubench.Runner{Device: dev, Monitor: mon, Config: cfg}).Run()
			return err
		}); err != nil {
			return err
		}
	}

	fl, err := fleetsim.New(fleetsim.Config{
		Seed:      l.e.cfg.Seed,
		Cohorts:   []fleetsim.CohortSpec{{Model: soc.Nexus5(), Devices: cohortSize}},
		AmbientLo: 12,
		AmbientHi: 38,
	})
	if err != nil {
		return err
	}
	c := fl.Cohorts()[0]
	ph := fleetsim.Phase{Busy: true, Wakelock: true}
	for r := 0; r < cohortSpans; r++ {
		if err := l.tr.timed("fleetsim.cohort_step", 0, r, cohortSize, func() error {
			return c.Step(0, cohortSize, &ph, 100*time.Millisecond)
		}); err != nil {
			return err
		}
	}
	return nil
}

// benchDevice is a busy-capable Nexus 5 on a bench supply, as the
// repository's device-step benchmark builds it.
func benchDevice(seed int64) (*device.Device, *monsoon.Monitor, error) {
	mon := monsoon.New(3.8)
	dev, err := device.New(device.Config{
		Name:    "bench",
		Model:   soc.Nexus5(),
		Corner:  silicon.ProcessCorner{Bin: 2, Leakage: 1.3},
		Ambient: 26,
		Seed:    seed,
		Source:  mon.Supply(),
	})
	return dev, mon, err
}

// report turns the spans into the per-layer metrics.
func (l *layers) report() error {
	e, tr := l.e, l.tr
	perSub := func(metric, span string) {
		_, ns, n := tr.perItem(span)
		e.report(metric, ns/1000, n)
	}
	perSub("wire.decode_us_per_sub", "wire.decode")
	perSub("ingest.decode_json_us_per_sub", "ingest.decode_json")
	perSub("ingest.validate_us_per_sub", "ingest.validate")
	perSub("crowd.evaluate_us_per_sub", "crowd.evaluate")
	perSub("store.put_batch_us_per_sub", "store.put_batch")

	pct := func(metric string, xs []float64, p float64) {
		e.report(metric, percentile(xs, p), len(xs))
	}
	submit := us(tr.self("ingest.submit_batch"))
	pct("ingest.submit_batch_p50_us", submit, 50)
	pct("ingest.submit_batch_p99_us", submit, 99)
	commit := us(tr.durations("wal.commit"))
	pct("wal.commit_p50_us", commit, 50)
	pct("wal.commit_p99_us", commit, 99)
	snaps := ms(tr.durations("wal.snapshot"))
	pct("wal.snapshot_ms_p50", snaps, 50)
	pct("wal.snapshot_ms_max", snaps, 100)
	pct("wal.recover_ms", ms(tr.durations("wal.recover")), 50)
	pct("store.snapshot_copy_ms", ms(tr.durations("store.snapshot_copy")), 50)
	pct("server.bins_recompute_ms", ms(tr.durations("server.bins_recompute")), 50)
	pct("server.bins_sketch_read_us", us(tr.durations("server.bins_sketch_read")), 50)

	inproc := us(tr.durations("server.stream_do"))
	pct("server.stream_do_p50_us", inproc, 50)
	pct("server.stream_do_p99_us", inproc, 99)
	daemon := us(tr.durations("daemon.stream_do"))
	e.report("transport.gap_p50_ms", (percentile(daemon, 50)-percentile(inproc, 50))/1000, len(daemon))
	batch := us(tr.durations("pipeline.batch"))
	e.report("trace.accounted_share", percentile(batch, 50)/percentile(inproc, 50), len(batch))

	ship := ms(tr.durations("replication.ship"))
	pct("replication.ship_p50_ms", ship, 50)
	pct("replication.ship_p99_ms", ship, 99)

	perStep := func(metric, span string) {
		ns, _, _ := tr.perItem(span)
		e.report(metric, median(ns), len(ns))
	}
	perStep("thermal.step_ns", "thermal.step")
	perStep("device.step_ns", "device.step")
	perStep("fleetsim.cohort_step_ns_per_dev", "fleetsim.cohort_step")
	pct("experiments.study_cold_ms", ms(tr.durations("experiments.study_cold")), 50)
	pct("accubench.iteration_ms", ms(tr.durations("accubench.iteration")), 50)

	if len(l.late) == 0 {
		return fmt.Errorf("the paced sections never waited for a due time")
	}
	pct("gen.late_p99_ms", ms(l.late), 99)
	return nil
}
