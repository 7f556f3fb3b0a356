package bench

import (
	"fmt"
	"time"

	"accubench/internal/wire"
)

const (
	// coldStartsPerSec is how many extra deployments an ingest workload
	// starts and times for setup_s per second of run length, on top of
	// one per phase: thirty in a ten-second run.
	coldStartsPerSec = 3
	// batchK is the most submissions one stream batch carries.
	batchK = 64
	// minPhase is the fewest submissions an ingest phase sends, so that
	// even at a short run length each model gathers the accepted devices
	// its bins need (about a third of the inputs are accepted).
	minPhase = 300
)

// shape sizes an ingest workload: a latency phase at a fixed offered
// load, then capacity rounds, each on a fresh deployment, of which the
// fastest is reported. Counts are per second of run length
// (Config.Seconds), so a short smoke run exercises the same code at a
// small scale.
type shape struct {
	// rate is the latency phase's offered load, operations per second,
	// and latency the part of the run the phase lasts.
	rate, latency float64
	// rounds is how many capacity rounds run, and roundPerSec their
	// size. A round lasts at most about a second: a full ten-second
	// phase would let the exact binner's O(corpus) recompute (every
	// 1.5 s under load) and the O(corpus) snapshots land at different
	// corpus sizes in each run and swamp the ingest path, and the binner
	// is read-mix's subject.
	rounds, roundPerSec int
}

var (
	// stream-ingest: 2000 sub/s on 2 streams for 6 s; 5 rounds of
	// 12 000 submissions.
	streamShape = shape{rate: 2000, latency: 0.6, rounds: 5, roundPerSec: 1200}
	// json-ingest: 250 sub/s over 2 connections for 8 s; 5 rounds of
	// 1500 POSTs.
	jsonShape = shape{rate: 250, latency: 0.8, rounds: 5, roundPerSec: 150}
	// cluster-ingest: 250 sub/s sprayed over 2 nodes for 14 s; 3 rounds
	// of 1000 submissions. Its latency phase is the longest because its
	// latency distribution is lumpy: a replica commits shipped records
	// one 2 ms group commit at a time and ships on a 5 ms tick, so p90
	// falls between modes and needs thousands of samples to settle.
	clusterShape = shape{rate: 250, latency: 1.4, rounds: 3, roundPerSec: 100}
)

// lateFlag is the generator lateness above which a run is flagged as
// measuring the driver rather than the program.
const lateFlag = 5 * time.Millisecond

// phase is one open-loop ingest phase's observations.
type phase struct {
	out    Outcome
	acked  []string
	before []map[string]float64
}

// round is one capacity round: operations completed, the time they took
// and the program's peak memory.
type round struct {
	ops     int
	elapsed time.Duration
	mem     float64
}

// freshDaemon starts crowdd on a new data directory.
func (e *runEnv) freshDaemon() (*daemon, time.Duration, error) {
	dir, err := e.tempDir("crowdd")
	if err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	return e.startDaemon(addr, dir)
}

// single starts one fresh daemon as a deployment.
func (e *runEnv) single() ([]*daemon, time.Duration, error) {
	d, s, err := e.freshDaemon()
	if err != nil {
		return nil, 0, err
	}
	return []*daemon{d}, s, nil
}

// timeStarts starts and kills n deployments, returning each set-up time.
func (e *runEnv) timeStarts(n int, start func() ([]*daemon, time.Duration, error)) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		ds, s, err := start()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		kill(ds)
	}
	return out, nil
}

func kill(ds []*daemon) {
	for _, d := range ds {
		d.kill()
	}
}

// peakMem is the largest resident-set high-water mark among the daemons,
// MB.
func peakMem(ds []*daemon) (float64, error) {
	peak := 0.0
	for _, d := range ds {
		r, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		peak = max(peak, r)
	}
	return peak, nil
}

// arrivals is the run's Poisson schedule for one phase.
func (e *runEnv) arrivals(n int, rate float64, tag string) []time.Duration {
	return Arrivals(n, rate, e.cfg.Seed, tag)
}

// drive runs one open-loop phase against ds and records its operations.
func (e *runEnv) drive(ds []*daemon, workers, maxBatch int, ids []string, due []time.Duration, send Sender) (phase, error) {
	var p phase
	var err error
	if p.before, err = e.scrape(ds); err != nil {
		return p, err
	}
	p.out = OpenLoop(e.ctx, time.Now(), due, workers, maxBatch, send)
	for i, t := range p.out.Done {
		if !t.IsZero() {
			p.acked = append(p.acked, ids[i])
		}
	}
	e.count(len(due), p.out.Failed)
	return p, nil
}

// streamPhase drives subs over one stream per entry of bases.
func (e *runEnv) streamPhase(ds []*daemon, bases []string, subs []wire.Submission, due []time.Duration) (phase, error) {
	s, err := newStreamSender(bases, subs)
	if err != nil {
		return phase{}, err
	}
	defer s.close()
	p, err := e.drive(ds, len(bases), batchK, deviceIDs(subs), due, s.send)
	if err == nil && p.out.Failed > 0 {
		e.logf("%d submissions failed, first: %v", p.out.Failed, s.errs.get())
	}
	return p, err
}

func deviceIDs(subs []wire.Submission) []string {
	ids := make([]string, len(subs))
	for i, s := range subs {
		ids[i] = s.Device
	}
	return ids
}

// reportLatencies records the median and 90th percentile of lat (ms) and
// logs the tail beyond them. The gated tail is p90: on a shared machine a
// single stall from outside the program lifts one run's p99 several-fold
// (measured: 25–50% spread over ten runs), while p90 held within 7%.
func (e *runEnv) reportLatencies(what string, lat []float64) {
	e.report("lat_p50_ms", percentile(lat, 50), len(lat))
	e.report("lat_p90_ms", percentile(lat, 90), len(lat))
	e.logf("%s p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max %.3f ms over %d",
		what, percentile(lat, 50), percentile(lat, 90), percentile(lat, 99), percentile(lat, 100), len(lat))
}

// reportLatency records a latency phase's latencies, from each
// operation's due time to its completion, and checks the generator's
// own lateness.
func (e *runEnv) reportLatency(out Outcome) {
	e.reportLatencies("latency", ms(out.Latencies()))
	late := ms(out.Late)
	p99 := percentile(late, 99)
	e.logf("generator late p99 %.3f ms over %d wake-ups", p99, len(late))
	if p99 > float64(lateFlag)/float64(time.Millisecond) {
		e.logf("WARNING: generator woke late (p99 %.3f ms > %v): the numbers measure the driver too", p99, lateFlag)
	}
}

// capacityRounds runs n capacity rounds, each on a deployment start
// returns, and reports the fastest round's throughput and the median
// round's peak memory. run performs one round on the deployment.
func (e *runEnv) capacityRounds(n int, start func() ([]*daemon, error), run func(r int, ds []*daemon) (round, error)) error {
	var rates, mems []float64
	var ops int
	for r := 0; r < n; r++ {
		ds, err := start()
		if err != nil {
			return err
		}
		rd, err := run(r, ds)
		kill(ds)
		if err != nil {
			return err
		}
		rates = append(rates, float64(rd.ops)/rd.elapsed.Seconds())
		mems = append(mems, rd.mem)
		ops += rd.ops
		e.logf("capacity round %d: %d operations in %v, %.0f/s, %.1f MB", r+1, rd.ops, rd.elapsed.Round(time.Millisecond), rates[r], rd.mem)
	}
	e.report("capacity_per_s", percentile(rates, 100), ops)
	e.report("mem_mb", median(mems), len(mems))
	return nil
}

func (e *runEnv) reportSetup(setups []time.Duration) {
	secs := make([]float64, len(setups))
	for i, s := range setups {
		secs[i] = s.Seconds()
	}
	e.report("setup_s", median(secs), len(secs))
}

// ingestRun runs an ingest workload shaped by sh: the latency phase,
// then the capacity rounds, each phase on a fresh deployment from start.
// send drives subs over a deployment on the schedule due (paced for the
// latency phase, all due at once for a round) and returns the phase and
// when its last submission was stored; verify runs the phase's
// correctness checks.
func (e *runEnv) ingestRun(sh shape, start func() ([]*daemon, time.Duration, error),
	send func(ds []*daemon, subs []wire.Submission, due []time.Duration, paced bool) (phase, time.Time, error),
	verify func(name string, ds []*daemon, p phase)) error {
	// A start takes a few milliseconds, so set-up is sampled many times.
	// Every deployment is preceded by its share of the cold starts, so
	// that the samples spread across the run rather than all falling
	// into, or all missing, one slow spell of the machine.
	var setups []time.Duration
	deploy := func() ([]*daemon, error) {
		cold, err := e.timeStarts(e.seconds(coldStartsPerSec)/(1+sh.rounds), start)
		if err != nil {
			return nil, err
		}
		ds, s, err := start()
		setups = append(append(setups, cold...), s)
		return ds, err
	}

	ds, err := deploy()
	if err != nil {
		return err
	}
	subs := e.inputs.Take(max(minPhase, e.seconds(sh.rate*sh.latency)), "lat")
	p, _, err := send(ds, subs, e.arrivals(len(subs), sh.rate, "lat"), true)
	if err != nil {
		return err
	}
	e.reportLatency(p.out)
	verify("latency", ds, p)
	kill(ds)

	err = e.capacityRounds(sh.rounds, deploy, func(r int, ds []*daemon) (round, error) {
		subs := e.inputs.Take(max(minPhase, e.seconds(float64(sh.roundPerSec))), fmt.Sprintf("cap%d", r))
		p, end, err := send(ds, subs, e.arrivals(len(subs), 0, ""), false)
		if err != nil {
			return round{}, err
		}
		mem, err := peakMem(ds)
		verify(fmt.Sprintf("capacity%d", r+1), ds, p)
		return round{ops: len(p.acked), elapsed: end.Sub(p.out.Start), mem: mem}, err
	})
	if err != nil {
		return err
	}
	e.reportSetup(setups)
	return nil
}

// lastDone is when an outcome's last operation completed.
func lastDone(out Outcome) time.Time { return out.Start.Add(out.Elapsed()) }

// runStream is stream-ingest: the default client path, binary batches
// on persistent POST /v1/stream connections, so it exercises the wire
// codec, batch ingest, the WAL with its snapshots, and the store.
func runStream(e *runEnv) error {
	return e.ingestRun(streamShape, e.single, func(ds []*daemon, subs []wire.Submission, due []time.Duration, _ bool) (phase, time.Time, error) {
		p, err := e.streamPhase(ds, []string{ds[0].url, ds[0].url}, subs, due)
		return p, lastDone(p.out), err
	}, e.verifyIngest)
}

// runJSON is json-ingest: one POST /v1/submissions per submission,
// through JSON decode and the staged channel pipeline. It bypasses the
// wire codec and batch path entirely.
func runJSON(e *runEnv) error {
	return e.ingestRun(jsonShape, e.single, func(ds []*daemon, subs []wire.Submission, due []time.Duration, paced bool) (phase, time.Time, error) {
		// A 202 only means enqueued. The latency phase therefore probes
		// each submission until it is stored; a capacity round instead
		// lasts until the store holds every accepted POST.
		js, err := newJSONSender(e.ctx, ds[0].url, subs, 2, paced)
		if err != nil {
			return phase{}, time.Time{}, err
		}
		p, err := e.drive(ds, 2, 1, deviceIDs(subs), due, js.send)
		js.close()
		if err != nil {
			return p, time.Time{}, err
		}
		if p.out.Failed > 0 {
			e.logf("%d submissions failed, first: %v", p.out.Failed, js.errs.get())
		}
		if paced {
			return p, lastDone(p.out), nil
		}
		end, err := e.waitStored(ds[0], p.before[0]["stored_total"]+float64(len(p.acked)))
		return p, end, err
	}, e.verifyIngest)
}

// waitStored polls the daemon's stored_total until it reaches target and
// returns when it did. It polls every 5 ms, a half percent of a round,
// since each scrape takes CPU from the daemon it is timing.
func (e *runEnv) waitStored(d *daemon, target float64) (time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := d.counters(e.ctx)
		if err != nil {
			return time.Time{}, err
		}
		if c["stored_total"] >= target {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("stored_total %v never reached %v", c["stored_total"], target)
		}
		sleepUntil(e.ctx, time.Now().Add(5*time.Millisecond))
	}
}

// runCluster is cluster-ingest: two crowdd nodes replicating every model
// to each other with proxy routing, one stream per node, each stream
// carrying every model. It is the only workload that ships replicas,
// forwards misrouted batches and exchanges digests.
func runCluster(e *runEnv) error {
	return e.ingestRun(clusterShape, e.cluster, func(ds []*daemon, subs []wire.Submission, due []time.Duration, _ bool) (phase, time.Time, error) {
		p, err := e.streamPhase(ds, []string{ds[0].url, ds[1].url}, subs, due)
		return p, lastDone(p.out), err
	}, e.verifyCluster)
}

// cluster starts a two-node cluster; its set-up time is the sum of the
// nodes' times from exec until /healthz answers.
func (e *runEnv) cluster() ([]*daemon, time.Duration, error) {
	addrs := make([]string, 2)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		addrs[i] = a
	}
	var ds []*daemon
	var total time.Duration
	for i := range addrs {
		dir, err := e.tempDir("node")
		if err != nil {
			return nil, 0, err
		}
		peer := fmt.Sprintf("n%d=http://%s", 2-i, addrs[1-i])
		d, s, err := e.startDaemon(addrs[i], dir, "-node-id", fmt.Sprintf("n%d", i+1), "-peers", peer)
		if err != nil {
			return nil, 0, err
		}
		ds = append(ds, d)
		total += s
	}
	return ds, total, nil
}

// verifyCluster adds the replication checks to the ingest ones: the
// nodes' digests converge before the sampled devices and the bins are
// compared across them.
func (e *runEnv) verifyCluster(name string, ds []*daemon, p phase) {
	took, err := e.waitConverged(ds, 30*time.Second)
	e.check(name+".converged", err)
	e.logf("%s: digests converged %v after the last ack", name, took.Round(time.Millisecond))
	e.verifyIngest(name, ds, p)
}
