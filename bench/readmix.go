package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"time"

	"accubench/internal/wire"
)

// read-mix sizes, per second of run length: a preload of 5000
// submissions; then, for readMixTimedShare of the run, 500 writes/s on
// one stream beside 100 bins reads/s on one connection; then capacity
// rounds of 2400 back-to-back bins reads each, on two connections. A
// round of 24 000 reads lasts about 0.4 s. On a shared machine rounds
// run at half speed through slow spells of up to several seconds, in
// which crowdd spends more CPU per read; eight rounds spanning about
// three seconds rarely all fall into one.
const (
	readMixPreloadPerSec = 5000
	readMixWriteRate     = 500.0
	readMixReadRate      = 100.0
	readMixTimedShare    = 0.7
	readMixRoundPerSec   = 2400
	readMixRounds        = 8
	// recoveries is how many SIGKILL-and-restart cycles read-mix times.
	recoveries = 5
)

var restoredLine = regexp.MustCompile(`restored (\d+) records`)

// runReadMix is read-mix: bins reads beside a steady write stream on a
// daemon recovered from a large data directory. Its latency is how long
// a write takes to show in the bins; ingest does little work here, so
// the exact binner's O(corpus) recompute and its maximum wait set it.
func runReadMix(e *runEnv) error {
	d, _, err := e.freshDaemon()
	if err != nil {
		return err
	}
	pre := e.inputs.Take(e.seconds(readMixPreloadPerSec), "pre")
	p, err := e.streamPhase([]*daemon{d}, []string{d.url, d.url}, pre, e.arrivals(len(pre), 0, ""))
	if err != nil {
		return err
	}
	preloaded := make(map[string]int)
	for i, t := range p.out.Done {
		if !t.IsZero() {
			preloaded[pre[i].Model]++
		}
	}
	e.logf("preloaded %d submissions in %v", len(p.acked), p.out.Elapsed().Round(time.Millisecond))

	// setup_s is recovery, a restart on the same directory after SIGKILL,
	// and mem_mb the peak memory recovery takes.
	var setups []time.Duration
	var mems []float64
	for i := 0; i < recoveries; i++ {
		d.kill()
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		var s time.Duration
		if d, s, err = e.startDaemon(addr, d.dir); err != nil {
			return err
		}
		setups = append(setups, s)
		mem, err := d.peakRSS()
		if err != nil {
			return err
		}
		mems = append(mems, mem)
		got := -1
		if m := d.waitOutput(e.ctx, restoredLine, 5*time.Second); m != nil {
			got, _ = strconv.Atoi(m[1])
		}
		var rerr error
		if got != len(p.acked) {
			rerr = fmt.Errorf("recovery restored %d records, %d were acknowledged", got, len(p.acked))
		}
		e.check(fmt.Sprintf("recovery%d.restored", i+1), rerr)
	}
	e.reportSetup(setups)
	e.report("mem_mb", median(mems), len(mems))
	ds := []*daemon{d}
	if err := e.waitBins(ds, 60*time.Second); err != nil {
		return fmt.Errorf("bins after recovery: %w", err)
	}

	writes := e.inputs.Take(e.seconds(readMixWriteRate*readMixTimedShare), "w")
	nReads := e.seconds(readMixReadRate * readMixTimedShare)
	reads := newBinsReader(e.ctx, d.url)
	defer reads.close()
	ws, err := newStreamSender([]string{d.url}, writes)
	if err != nil {
		return err
	}
	before, err := e.scrape(ds)
	if err != nil {
		return err
	}
	start := time.Now()
	var wout Outcome
	done := make(chan struct{})
	go func() {
		wout = OpenLoop(e.ctx, start, e.arrivals(len(writes), readMixWriteRate, "w"), 1, batchK, ws.send)
		close(done)
	}()
	rout := OpenLoop(e.ctx, start, e.arrivals(nReads, readMixReadRate, "r"), 1, 1, reads.send)
	<-done
	ws.close()
	e.count(len(writes)+nReads, wout.Failed+rout.Failed)
	if wout.Failed > 0 {
		e.logf("%d writes failed, first: %v", wout.Failed, ws.errs.get())
	}
	if rout.Failed > 0 {
		e.logf("%d bins reads failed, first: %v", rout.Failed, reads.errs.get())
	}
	reads.record(rout)

	// Keep reading at the same pace until every write is in the bins.
	target := make(map[string]int)
	for m, n := range preloaded {
		target[m] = n
	}
	var acked []string
	for i, t := range wout.Done {
		if !t.IsZero() {
			target[writes[i].Model]++
			acked = append(acked, writes[i].Device)
		}
	}
	if err := reads.drain(e, target); err != nil {
		return err
	}
	vis, err := visibility(writes, wout, preloaded, reads.log)
	if err != nil {
		return err
	}
	e.reportLatencies("write visible in bins", ms(vis))

	// Capacity is back-to-back bins reads on both connections once every
	// write is visible and the daemon idle: a recompute or snapshot still
	// running would take a varying share of a round. Round 0 warms the
	// connections and the daemon's heap and is not counted.
	if err := e.waitIdle(d); err != nil {
		return err
	}
	var rates []float64
	total := 0
	for r := 0; r <= readMixRounds; r++ {
		n := e.seconds(readMixRoundPerSec)
		out := OpenLoop(e.ctx, time.Now(), e.arrivals(n, 0, ""), len(reads.clients), 1, reads.fetch)
		e.count(n, out.Failed)
		rate := float64(n-out.Failed) / out.Elapsed().Seconds()
		e.logf("capacity round %d: %d reads in %v, %.0f/s", r, n-out.Failed, out.Elapsed().Round(time.Millisecond), rate)
		if r > 0 {
			rates = append(rates, rate)
			total += n - out.Failed
		}
	}
	e.report("capacity_per_s", percentile(rates, 100), total)
	e.verifyIngest("mixed", ds, phase{before: before, acked: acked})
	e.check("mixed.sampled_preload", e.verifyDevices(ds, e.sample(p.acked)))
	d.kill()
	return nil
}

// binsRead is one GET /v1/bins?model=M answer: when it arrived and how
// many submissions of M the bins counted.
type binsRead struct {
	model string
	at    time.Time
	count int
}

// binsReader reads one model's bins per call, round-robin over Models.
// The mixed phase reads on its first connection; capacity rounds use
// both.
type binsReader struct {
	ctx     context.Context
	base    string
	clients [2]*http.Client
	counts  []int
	log     []binsRead
	errs    firstError
}

func newBinsReader(ctx context.Context, base string) *binsReader {
	r := &binsReader{ctx: ctx, base: base}
	for i := range r.clients {
		r.clients[i] = newClient(30 * time.Second)
	}
	return r
}

func (r *binsReader) close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}

func (r *binsReader) read(i int) (binsRead, error) {
	model := Models[i%len(Models)]
	body, err := get(r.ctx, r.clients[0], r.base+"/v1/bins?model="+url.QueryEscape(model), http.StatusOK)
	if err != nil {
		return binsRead{}, r.errs.set(err)
	}
	var resp struct {
		Models []struct {
			Submissions int `json:"submissions"`
		} `json:"models"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Models) != 1 {
		return binsRead{}, r.errs.set(fmt.Errorf("bins for %s: %v %s", model, err, body))
	}
	return binsRead{model: model, at: time.Now(), count: resp.Models[0].Submissions}, nil
}

// send is the Sender for bins reads; item i reads Models[i%5]. Only one
// worker may use it.
func (r *binsReader) send(_ int, items []int) error {
	for _, i := range items {
		br, err := r.read(i)
		if err != nil {
			return err
		}
		if len(r.counts) <= i {
			r.counts = append(r.counts, make([]int, i+1-len(r.counts))...)
		}
		r.counts[i] = br.count
	}
	return nil
}

// fetch is the Sender for capacity reads on worker w's connection: item
// i reads Models[i%5]'s bins and drops the body unparsed, so the
// driver's own work stays small beside the server's.
func (r *binsReader) fetch(w int, items []int) error {
	for _, i := range items {
		u := r.base + "/v1/bins?model=" + url.QueryEscape(Models[i%len(Models)])
		if _, err := get(r.ctx, r.clients[w], u, http.StatusOK); err != nil {
			return r.errs.set(err)
		}
	}
	return nil
}

// record appends an open-loop read phase's answers to the log.
func (r *binsReader) record(out Outcome) {
	for i, t := range out.Done {
		if !t.IsZero() {
			r.log = append(r.log, binsRead{model: Models[i%len(Models)], at: t, count: r.counts[i]})
		}
	}
}

// drain keeps reading at the mixed phase's pace until every model's bins
// count target submissions.
func (r *binsReader) drain(e *runEnv, target map[string]int) error {
	seen := make(map[string]int)
	for _, br := range r.log {
		seen[br.model] = max(seen[br.model], br.count)
	}
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		covered := true
		for _, m := range Models {
			covered = covered && seen[m] >= target[m]
		}
		if covered {
			return nil
		}
		if time.Now().After(deadline) || e.ctx.Err() != nil {
			return fmt.Errorf("bins never covered every acknowledged write: have %v, want %v", seen, target)
		}
		sleepUntil(e.ctx, time.Now().Add(time.Duration(float64(time.Second)/readMixReadRate)))
		br, err := r.read(i)
		e.count(1, 0)
		if err != nil {
			return err
		}
		r.log = append(r.log, br)
		seen[br.model] = max(seen[br.model], br.count)
	}
}

// visibility returns, per acknowledged write, the time from when it was
// due to the first bins read that counted it. The single write stream
// commits in schedule order, so the k-th write of model M is counted
// once M's bins show preloaded[M]+k+1 submissions.
func visibility(writes []wire.Submission, out Outcome, preloaded map[string]int, log []binsRead) ([]time.Duration, error) {
	byModel := make(map[string][]binsRead)
	for _, br := range log {
		byModel[br.model] = append(byModel[br.model], br)
	}
	for _, rs := range byModel {
		sort.Slice(rs, func(a, b int) bool { return rs[a].at.Before(rs[b].at) })
	}
	ordinal := make(map[string]int)
	next := make(map[string]int)
	var vis []time.Duration
	for i, w := range writes {
		k := ordinal[w.Model]
		ordinal[w.Model]++
		if out.Done[i].IsZero() {
			continue
		}
		rs := byModel[w.Model]
		j := next[w.Model]
		for j < len(rs) && rs[j].count < preloaded[w.Model]+k+1 {
			j++
		}
		if j == len(rs) {
			return nil, fmt.Errorf("write %s never counted in %s bins", w.Device, w.Model)
		}
		next[w.Model] = j
		vis = append(vis, rs[j].at.Sub(out.Start.Add(out.Due[i])))
	}
	return vis, nil
}
