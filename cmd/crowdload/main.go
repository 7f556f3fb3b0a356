// Command crowdload load-tests a running crowdd: it simulates a fleet of N
// in-the-wild devices (silicon-lottery draws, each at a random ambient),
// runs ACCUBENCH on every one, and fires the uploads at the server
// concurrently, retrying on backpressure so nothing is dropped. It then
// waits for the server to drain, verifies zero dropped submissions, and
// prints throughput, acceptance-rate and bin stats.
//
// Devices are simulated by the batched fleet engine (internal/fleetsim,
// docs/FLEET.md) by default: -fleet N steps N devices in struct-of-arrays
// form, fast enough that a million-device population runs faster than real
// time on one machine. -fleet-mix spreads the population across handset
// models; -dry-run skips the server entirely and prints the population
// study. -source device falls back to one device.Device per unit — the
// original path, bit-identical to the fleet engine by construction.
//
// Uploads ride the binary wire protocol by default — each worker holds
// one persistent stream to its home node and ships batches of -batch
// submissions per frame, acked per batch (docs/WIRE.md). -transport
// json falls back to one JSON POST per submission, the original path,
// kept for comparison benchmarks and older servers.
//
//	crowdd -addr :8077 &
//	crowdload -addr http://127.0.0.1:8077 -fleet 1000000
//
// Against a cluster (docs/CLUSTER.md), -peers lists the other nodes:
// uploads are sprayed across all of them, and after the run the tool
// verifies the cluster-level contract — converged digests, every
// acknowledged submission present on every live node, bit-identical
// bins — exiting non-zero on any miss, even if a node died mid-run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accubench/internal/chaos"
	"accubench/internal/crowd"
	"accubench/internal/fleet"
	"accubench/internal/fleetsim"
	"accubench/internal/ingest"
	"accubench/internal/obs"
	"accubench/internal/silicon"
	"accubench/internal/sim"
	"accubench/internal/soc"
	"accubench/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "crowdload:", err)
		os.Exit(1)
	}
}

// run is the whole load generator behind a testable seam: flags come
// from args rather than the global FlagSet, and all output lands on the
// given writers.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8077", "crowdd base URL")
		devices     = fs.Int("devices", 200, "number of simulated devices")
		modelName   = fs.String("model", "Nexus 5", "device model to simulate")
		concurrency = fs.Int("concurrency", 16, "simulating/uploading workers")
		seed        = fs.Int64("seed", 1, "random seed")
		ambientLo   = fs.Float64("ambient-lo", 12, "lowest wild ambient, °C")
		ambientHi   = fs.Float64("ambient-hi", 38, "highest wild ambient, °C")
		sigma       = fs.Float64("sigma", 0.55, "population leakage log-normal sigma")
		binNoise    = fs.Float64("bin-noise", 0.35, "fab binning-measurement noise")
		retries     = fs.Int("retries", 50, "max retries per upload on backpressure")
		peersFlag   = fs.String("peers", "", "comma-separated additional crowdd base URLs; uploads are sprayed across -addr plus these, and after the run every acknowledged submission is verified present on every node with bit-identical bins")
		scenarioF   = fs.String("scenario", "", "chaos scenario to run the load under (baseline, degraded, partition, high-load); faults are injected client-side into this tool's connections, docs/CLUSTER.md §Fault injection")
		chaosSeed   = fs.Int64("chaos-seed", 1, "seed for the chaos fault plan; the same seed scripts the same faults")
		benchOut    = fs.String("bench-out", "", "JSON file to merge this scenario's submissions/sec + ack p99 + time-to-convergence into (BENCH_7.json shape, compared by scripts/bench_diff.sh)")
		transportF  = fs.String("transport", "binary", "upload transport: binary (persistent streams of batched wire frames, docs/WIRE.md) or json (one POST per submission)")
		batchK      = fs.Int("batch", 64, "submissions per batch frame on the binary transport")
		sourceF     = fs.String("source", "fleet", "device simulator: fleet (batched struct-of-arrays engine, internal/fleetsim) or device (one device.Device per unit)")
		fleetN      = fs.Int("fleet", 0, "shorthand: simulate this many devices on the fleet source (overrides -devices)")
		fleetWork   = fs.Int("fleet-workers", 0, "fleet stepper goroutines (0 = GOMAXPROCS); results are bit-identical at any worker count")
		mixF        = fs.String("fleet-mix", "", `model mix for the fleet source, e.g. "Nexus 5=3,Google Pixel=1" — weights apportion -devices; empty uses -model alone`)
		dryRun      = fs.Bool("dry-run", false, "fleet source only: simulate and print the population study without a server")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *fleetN > 0 {
		*devices = *fleetN
		*sourceF = "fleet"
	} else if *fleetN < 0 {
		return fmt.Errorf("need -fleet > 0")
	}
	if *devices <= 0 {
		return fmt.Errorf("need -devices > 0")
	}
	if *concurrency <= 0 {
		return fmt.Errorf("need -concurrency > 0")
	}
	useFleet := false
	switch *sourceF {
	case "fleet":
		useFleet = true
	case "device":
		if *mixF != "" {
			return fmt.Errorf("-fleet-mix needs -source fleet")
		}
		if *dryRun {
			return fmt.Errorf("-dry-run needs -source fleet")
		}
	default:
		return fmt.Errorf("unknown -source %q (want fleet or device)", *sourceF)
	}
	if *dryRun && (*scenarioF != "" || *peersFlag != "") {
		return fmt.Errorf("-dry-run is simulation-only; drop -scenario/-peers")
	}
	useWire := false
	switch *transportF {
	case "binary":
		useWire = true
	case "json":
	default:
		return fmt.Errorf("unknown -transport %q (want binary or json)", *transportF)
	}
	if useWire && *batchK <= 0 {
		return fmt.Errorf("need -batch > 0")
	}
	model, err := soc.ModelByName(*modelName)
	if err != nil {
		return err
	}
	nodes := []string{strings.TrimRight(*addr, "/")}
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
				nodes = append(nodes, p)
			}
		}
	}
	var sc chaos.Scenario
	var plan *chaos.Plan
	if *scenarioF != "" {
		if sc, err = chaos.MustLookup(*scenarioF); err != nil {
			return err
		}
		if sc.Name == "partition" && len(nodes) < 2 {
			return fmt.Errorf("the partition scenario needs -peers: with a single node the client would just be cut off")
		}
		plan = chaos.NewPlan(*chaosSeed)
	}

	// Build the population. Fleet source: cohort specs for the batched
	// engine, with the silicon lottery and wild ambients drawn inside
	// fleetsim.New. Device source: one crowd.WildDevice per unit, the
	// original path.
	var fl *fleetsim.Fleet
	var wild []crowd.WildDevice
	modelNames := []string{model.Name}
	if useFleet {
		specs, err := parseMix(*mixF, model, *devices)
		if err != nil {
			return err
		}
		reg := obs.NewRegistry("crowdload_")
		if fl, err = fleetsim.New(fleetsim.Config{
			Seed:      *seed,
			Cohorts:   specs,
			AmbientLo: units.Celsius(*ambientLo),
			AmbientHi: units.Celsius(*ambientHi),
			Sigma:     *sigma,
			BinNoise:  *binNoise,
			Workers:   *fleetWork,
			Metrics:   reg,
		}); err != nil {
			return err
		}
		modelNames = modelNames[:0]
		for _, c := range fl.Cohorts() {
			modelNames = append(modelNames, c.Model().Name)
		}
		if *dryRun {
			return dryRunFleet(stdout, fl, reg)
		}
	} else {
		src := sim.NewSource(*seed, "crowdload")
		lottery := silicon.Lottery{Sigma: *sigma, Bins: model.SoC.Bins, BinNoise: *binNoise}
		corners, err := lottery.Draw(src, *devices)
		if err != nil {
			return err
		}
		wild = make([]crowd.WildDevice, *devices)
		for i, corner := range corners {
			wild[i] = crowd.WildDevice{
				Unit:    fleet.Unit{Name: fmt.Sprintf("load-%04d", i), ModelName: model.Name, Corner: corner},
				Ambient: units.Celsius(src.Uniform(*ambientLo, *ambientHi)),
				Seed:    *seed*1000 + int64(i),
				Quick:   true,
			}
		}
	}
	population := model.Name
	if fl != nil {
		population = describeFleet(fl)
	}
	if len(nodes) == 1 {
		fmt.Fprintf(stdout, "crowdload: %d devices (%s, %s source) → %s (%d workers, %s transport)\n", *devices, population, *sourceF, *addr, *concurrency, *transportF)
	} else {
		fmt.Fprintf(stdout, "crowdload: %d devices (%s, %s source) sprayed across %d nodes (%d workers, %s transport)\n", *devices, population, *sourceF, len(nodes), *concurrency, *transportF)
	}
	// One shared transport for the whole run, tuned so every worker keeps
	// a warm connection: the default keeps only 2 idle conns per host, so
	// with more workers than that every third POST would pay a fresh TCP
	// handshake. Keep-alives stay on (binary streams hold their
	// connection open for the run; JSON POSTs reuse pooled ones).
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = *concurrency
	transport.MaxIdleConns = 4 * *concurrency
	transport.DisableKeepAlives = false
	client := &http.Client{Timeout: 30 * time.Second, Transport: transport}

	// Snapshot the counters first: the servers may already hold records, so
	// every accounting figure below is a delta against this baseline.
	base, err := fetchClusterMetrics(client, nodes)
	if err != nil {
		return err
	}

	// Scenario mode: route this tool's traffic through the fault plan's
	// Transport and script the scenario — after the baseline snapshot, so
	// the accounting deltas are not taken through a partition.
	netRetries := 0
	if plan != nil {
		scNodes := []string{"client"}
		for i, node := range nodes {
			id := fmt.Sprintf("node%d", i+1)
			if err := plan.RegisterNode(id, node); err != nil {
				return err
			}
			scNodes = append(scNodes, id)
		}
		ct := chaos.NewTransport(plan, "client")
		ct.Base = transport
		client.Transport = ct
		sc.Apply(plan, scNodes)
		// Injected connection failures (drops, partitions) are part of the
		// scenario, not a dead server: retry a few times before failing over.
		netRetries = 3
		fmt.Fprintf(stdout, "chaos: scenario %s (seed %d): %s\n", sc.Name, *chaosSeed, sc.Description)
		for _, ev := range plan.Events() {
			fmt.Fprintf(stdout, "chaos:   %s\n", ev)
		}
	}

	// Streams live longer than any single POST, so they bypass the
	// client's 30 s whole-request timeout while sharing its (possibly
	// chaos-wrapped) transport and connection pool.
	streamClient := &http.Client{Transport: client.Transport}

	var sent, retried, failed, implausible atomic.Uint64
	var simNanos, postNanos atomic.Int64
	var ackedMu sync.Mutex
	var acked []string         // device IDs whose upload was acknowledged
	var ackLatencies []float64 // per acked upload (JSON) or batch (binary): ms from first send to the ack, retries included
	start := time.Now()

	// The simulation source feeds finished benchmarks into items; upload
	// workers drain it. The fleet engine produces in shard bursts while
	// uploads stream out concurrently, so the channel carries a buffer.
	items := make(chan uploadItem, 1024)
	prodErr := make(chan error, 1)
	go func() {
		defer close(items)
		if fl != nil {
			t0 := time.Now()
			err := fl.RunWild(func(s fleetsim.Submission) {
				it := uploadItem{device: s.Device, model: s.Model, score: s.Score, cooldown: s.Cooldown}
				if plausible(it) != nil {
					// Lottery-tail thermal runaway: the trace would fail
					// the server's ingest validation, so don't upload it.
					implausible.Add(1)
					return
				}
				items <- it
			})
			simNanos.Add(time.Since(t0).Nanoseconds())
			prodErr <- err
			return
		}
		// Device source: one simulator per upload worker, the original
		// concurrency shape.
		var pw sync.WaitGroup
		work := make(chan crowd.WildDevice)
		for w := 0; w < *concurrency; w++ {
			pw.Add(1)
			go func() {
				defer pw.Done()
				for dev := range work {
					t0 := time.Now()
					sub, err := dev.Benchmark()
					simNanos.Add(time.Since(t0).Nanoseconds())
					if err != nil {
						fmt.Fprintf(stderr, "crowdload: %s: benchmark: %v\n", dev.Unit.Name, err)
						failed.Add(1)
						continue
					}
					items <- uploadItem{device: sub.Device, model: dev.Unit.ModelName, score: sub.Score, cooldown: sub.CooldownReadings}
				}
			}()
		}
		for _, dev := range wild {
			work <- dev
		}
		close(work)
		pw.Wait()
		prodErr <- nil
	}()

	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if useWire {
				wireWorker(wireWorkerConfig{
					client:     streamClient,
					nodes:      nodes,
					home:       w % len(nodes),
					batch:      *batchK,
					retries:    *retries + netRetries,
					stderr:     stderr,
					sent:       &sent,
					retried:    &retried,
					failed:     &failed,
					postNanos:  &postNanos,
					ackedMu:    &ackedMu,
					acked:      &acked,
					ackLatency: &ackLatencies,
				}, func(yield func(uploadItem)) {
					for it := range items {
						yield(it)
					}
				})
				return
			}
			home := w % len(nodes)
			for it := range items {
				raw, err := ingest.Marshal(it.device, it.model, it.score, it.cooldown)
				if err != nil {
					fmt.Fprintf(stderr, "crowdload: %s: marshal: %v\n", it.device, err)
					failed.Add(1)
					continue
				}
				t1 := time.Now()
				node := nodes[home]
				err = upload(client, node, raw, *retries, &retried, netRetries)
				if err != nil && len(nodes) > 1 {
					// A node dying mid-run must not lose the device: fail
					// over to the other nodes before giving up.
					for _, alt := range nodes {
						if alt == node {
							continue
						}
						if err = upload(client, alt, raw, *retries, &retried, netRetries); err == nil {
							break
						}
					}
				}
				if err != nil {
					fmt.Fprintf(stderr, "crowdload: %s: %v\n", it.device, err)
					failed.Add(1)
					continue
				}
				ackWait := time.Since(t1)
				postNanos.Add(ackWait.Nanoseconds())
				sent.Add(1)
				ackedMu.Lock()
				acked = append(acked, it.device)
				ackLatencies = append(ackLatencies, float64(ackWait.Nanoseconds())/1e6)
				ackedMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := <-prodErr; err != nil {
		return err
	}
	elapsed := time.Since(start)

	if failed.Load() > 0 {
		return fmt.Errorf("%d submissions failed", failed.Load())
	}

	// Heal before verifying: the scenario's faults were the workload; the
	// acceptance contract is what the cluster looks like afterwards.
	// Time-to-convergence is measured from this instant.
	var healedAt time.Time
	if plan != nil {
		healedAt = time.Now()
		sc.Heal(plan)
	}

	fmt.Fprintf(stdout, "\nuploaded %d submissions in %v (%.1f sub/s end to end, %d backpressure retries)\n",
		sent.Load(), elapsed.Round(time.Millisecond), float64(sent.Load())/elapsed.Seconds(), retried.Load())
	if n := implausible.Load(); n > 0 {
		fmt.Fprintf(stdout, "withheld %d implausible traces (silicon-lottery thermal-runaway tail — would fail ingest validation)\n", n)
	}
	fmt.Fprintf(stdout, "device-sim time %v total, post time %v total across %d workers\n",
		time.Duration(simNanos.Load()).Round(time.Millisecond),
		time.Duration(postNanos.Load()).Round(time.Millisecond), *concurrency)

	// settled sums a counter's delta across every node still answering
	// /metrics. In cluster mode a dead node's local-ingest counts drop out
	// of the sum; the convergence check below is what proves nothing was
	// lost.
	var metrics []map[string]uint64
	settled := func(name string) uint64 {
		var sum uint64
		for i, m := range metrics {
			if m != nil {
				sum += m[name] - base[i][name]
			}
		}
		return sum
	}
	var binsNode string
	var convergeMS int64
	if len(nodes) == 1 {
		// Standalone: wait for the server to drain — stored must reach
		// sent, and any shortfall is a dropped submission, a hard failure.
		deadline := time.Now().Add(30 * time.Second)
		for {
			if metrics, err = fetchClusterMetrics(client, nodes); err != nil {
				return err
			}
			if settled("crowdd_stored_total")+settled("crowdd_decode_errors_total")+settled("crowdd_aborted_total") >= sent.Load() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("server did not drain: %d stored of %d sent", settled("crowdd_stored_total"), sent.Load())
			}
			time.Sleep(50 * time.Millisecond)
		}
		binsNode = nodes[0]
		if plan != nil {
			// Standalone "convergence" is the drain: every acked upload
			// visible in the store.
			convergeMS = time.Since(healedAt).Milliseconds()
		}
	} else {
		if plan != nil {
			// Time-to-convergence: heal until every node agrees on digests.
			// verifyCluster re-checks below — cheap once converged.
			if _, err := waitDigestsConverge(client, nodes, 60*time.Second); err != nil {
				return err
			}
			convergeMS = time.Since(healedAt).Milliseconds()
		}
		// Cluster: a 202 already implied a durable local commit plus one
		// replica acknowledgement, so there is nothing left in flight once
		// every upload is acknowledged. Verify the cluster-level contract
		// instead: converged digests, every acknowledged submission present
		// on every live node, bit-identical bins.
		live, err := verifyCluster(client, stdout, nodes, model.Name, acked)
		if err != nil {
			return err
		}
		if metrics, err = fetchClusterMetrics(client, nodes); err != nil {
			return err
		}
		binsNode = live[0]
	}

	stored := settled("crowdd_stored_total")
	accepted := settled("crowdd_accepted_total")
	fmt.Fprintf(stdout, "servers stored %d (accepted %d, rejected %d) — %.1f%% acceptance\n",
		stored, accepted, settled("crowdd_rejected_total"),
		100*float64(accepted)/float64(stored))
	if first := metrics[0]; first != nil && first["crowdd_wal_segments"] > 0 {
		fmt.Fprintf(stdout, "server persistence: wal appended %d this run (%d fsyncs, %d bytes), node 0 last snapshot seq %d\n",
			settled("crowdd_wal_appended_total"), settled("crowdd_wal_fsyncs_total"),
			settled("crowdd_wal_bytes_total"), first["crowdd_wal_last_snapshot_seq"])
	} else {
		fmt.Fprintln(stdout, "server persistence: disabled (in-memory store)")
	}

	for _, name := range modelNames {
		if err := printBins(client, stdout, binsNode, name); err != nil {
			return err
		}
	}
	if len(nodes) == 1 {
		if dropped := int64(sent.Load()) - int64(stored); dropped > 0 {
			return fmt.Errorf("%d submissions dropped", dropped)
		}
	}
	fmt.Fprintln(stdout, "zero dropped submissions ✓")

	if plan != nil {
		st := plan.Stats()
		fmt.Fprintf(stdout, "chaos: injected %d delays, %d drops, %d error responses, %d mid-body breaks, %d blocked by partition\n",
			st.Delayed, st.Dropped, st.Errored, st.BodyErrs, st.Blocked)
		ackedMu.Lock()
		res := scenarioResult{
			Name:              sc.Name,
			SubmissionsPerSec: float64(sent.Load()) / elapsed.Seconds(),
			AckP99MS:          p99ms(ackLatencies),
			ConvergenceMS:     convergeMS,
		}
		ackedMu.Unlock()
		fmt.Fprintf(stdout, "chaos: scenario %s: %.1f sub/s, ack p99 %.1fms, convergence %dms\n",
			res.Name, res.SubmissionsPerSec, res.AckP99MS, res.ConvergenceMS)
		if *benchOut != "" {
			if err := writeBenchOut(*benchOut, res); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "chaos: recorded scenario %s into %s\n", res.Name, *benchOut)
		}
	}
	return nil
}

// verifyCluster is the cluster-mode acceptance gate: every node that is
// still alive must converge to the same per-model digests, hold every
// acknowledged submission, and serve bit-identical bins. Any
// acknowledged upload missing anywhere is a replication bug and fails
// the run. Returns the live node set.
func verifyCluster(client *http.Client, stdout io.Writer, nodes []string, model string, acked []string) ([]string, error) {
	live, err := waitDigestsConverge(client, nodes, 60*time.Second)
	if err != nil {
		return nil, err
	}
	if len(live) < 1 {
		return nil, fmt.Errorf("no live nodes to verify against")
	}
	fmt.Fprintf(stdout, "cluster converged: %d/%d nodes agree on digests\n", len(live), len(nodes))

	missing := 0
	for _, dev := range acked {
		for _, node := range live {
			resp, err := client.Get(node + "/v1/devices/" + dev)
			if err != nil {
				return nil, fmt.Errorf("checking %s on %s: %w", dev, node, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fmt.Fprintf(stdout, "MISSING: acknowledged submission %s absent from %s (HTTP %d)\n", dev, node, resp.StatusCode)
				missing++
			}
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("%d acknowledged submissions missing from converged nodes", missing)
	}
	fmt.Fprintf(stdout, "all %d acknowledged submissions present on every live node ✓\n", len(acked))

	if err := waitBinsIdentical(client, live, model, 30*time.Second); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "bins bit-identical across %d nodes ✓\n", len(live))
	return live, nil
}

// waitDigestsConverge polls every node's /v1/digest until all reachable
// nodes report the same map, returning the reachable set. Nodes that
// stay unreachable for the whole window are treated as dead and
// excluded; at least one node must answer.
func waitDigestsConverge(client *http.Client, nodes []string, window time.Duration) ([]string, error) {
	type digest struct {
		Records int    `json:"records"`
		Digest  uint64 `json:"digest"`
		MaxWall int64  `json:"max_hlc_wall"`
	}
	deadline := time.Now().Add(window)
	for {
		var live []string
		var digests []map[string]digest
		for _, node := range nodes {
			resp, err := client.Get(node + "/v1/digest")
			if err != nil {
				continue // dead node: the survivors must still converge
			}
			var d map[string]digest
			err = json.NewDecoder(resp.Body).Decode(&d)
			resp.Body.Close()
			if err != nil {
				continue
			}
			live = append(live, node)
			digests = append(digests, d)
		}
		converged := len(live) > 0
		for i := 1; i < len(digests); i++ {
			if !reflect.DeepEqual(digests[0], digests[i]) {
				converged = false
				break
			}
		}
		if converged {
			return live, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("digests did not converge across %d live nodes within %v", len(live), window)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// waitBinsIdentical polls every node's bins for the model until all
// report the same population, centroids and sizes — bit-identical
// binning, the replicated read contract.
func waitBinsIdentical(client *http.Client, nodes []string, model string, window time.Duration) error {
	type bins struct {
		Submissions int       `json:"submissions"`
		Accepted    int       `json:"accepted"`
		BinCount    int       `json:"bin_count"`
		Centroids   []float64 `json:"centroids"`
		Sizes       []int     `json:"sizes"`
		Slope       float64   `json:"ambient_slope_per_c"`
	}
	fetch := func(node string) (*bins, error) {
		resp, err := client.Get(node + "/v1/bins?model=" + url.QueryEscape(model))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return nil, nil
		}
		var out struct {
			Models []bins `json:"models"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		if len(out.Models) == 0 {
			return nil, nil
		}
		return &out.Models[0], nil
	}
	deadline := time.Now().Add(window)
	for {
		all := make([]*bins, 0, len(nodes))
		ok := true
		for _, node := range nodes {
			b, err := fetch(node)
			if err != nil {
				return err
			}
			if b == nil {
				ok = false
				break
			}
			all = append(all, b)
		}
		if ok {
			for i := 1; i < len(all); i++ {
				if !reflect.DeepEqual(all[0], all[i]) {
					ok = false
					break
				}
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bins did not become identical across %d nodes within %v", len(nodes), window)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// fetchClusterMetrics snapshots every node's /metrics; a dead node's
// entry is nil.
func fetchClusterMetrics(client *http.Client, nodes []string) ([]map[string]uint64, error) {
	out := make([]map[string]uint64, len(nodes))
	var firstErr error
	live := 0
	for i, node := range nodes {
		m, err := fetchMetrics(client, node)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[i] = m
		live++
	}
	if live == 0 {
		return nil, firstErr
	}
	return out, nil
}

// upload POSTs one payload, retrying on 503 backpressure with linear
// backoff. netRetries additionally retries connection-level failures —
// scenario mode sets it non-zero, because injected drops and partitions
// are part of the workload, not a dead server.
func upload(client *http.Client, addr string, raw []byte, retries int, retried *atomic.Uint64, netRetries int) error {
	netErrs := 0
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(addr+"/v1/submissions", "application/json", bytes.NewReader(raw))
		if err != nil {
			if netErrs++; netErrs > netRetries {
				return err
			}
			retried.Add(1)
			time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			return nil
		case resp.StatusCode == http.StatusServiceUnavailable && attempt < retries:
			retried.Add(1)
			time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
		default:
			return fmt.Errorf("POST /v1/submissions = %d after %d attempts", resp.StatusCode, attempt+1)
		}
	}
}

// fetchMetrics parses the plain-text /metrics exposition.
func fetchMetrics(client *http.Client, addr string) (map[string]uint64, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue
		}
		out[name] = n
	}
	return out, nil
}

// printBins prints the model's bins. It reads once: it runs after the
// drain (standalone) or the convergence check (cluster), and the server
// serves bins folded from sketches every commit keeps current, so the
// read already counts every stored submission.
func printBins(client *http.Client, stdout io.Writer, addr, model string) error {
	resp, err := client.Get(addr + "/v1/bins?model=" + url.QueryEscape(model))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		fmt.Fprintf(stdout, "no bins for %s: the server stored none of its submissions\n", model)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET bins for %s: HTTP %d", model, resp.StatusCode)
	}
	var bins struct {
		Models []struct {
			Model     string    `json:"model"`
			Accepted  int       `json:"accepted"`
			BinCount  int       `json:"bin_count"`
			Centroids []float64 `json:"centroids"`
			Sizes     []int     `json:"sizes"`
			Slope     float64   `json:"ambient_slope_per_c"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bins); err != nil {
		return err
	}
	if len(bins.Models) != 1 {
		return fmt.Errorf("GET bins for %s: %d entries, want 1", model, len(bins.Models))
	}
	mb := bins.Models[0]
	fmt.Fprintf(stdout, "bins for %s: %d bins over %d accepted (slope %.1f score/°C)\n",
		mb.Model, mb.BinCount, mb.Accepted, mb.Slope)
	for i, c := range mb.Centroids {
		fmt.Fprintf(stdout, "  bin %d: centroid %.0f, %d devices\n", i, c, mb.Sizes[i])
	}
	return nil
}
