// Command crowdload load-tests a running crowdd: it simulates a fleet of N
// in-the-wild devices (silicon-lottery draws, each at a random ambient)
// with the batched fleet engine (internal/fleetsim, docs/FLEET.md), runs
// ACCUBENCH on every one, and streams the uploads to the server over the
// binary wire protocol (docs/WIRE.md). Each worker holds one persistent
// stream to its home node and ships batches of -batch submissions per
// frame; an ack means the batch is committed (durably, when crowdd runs
// with -data-dir), so once every batch is acked the tool verifies zero
// dropped submissions and prints throughput, acceptance-rate and bin
// stats.
//
// -fleet-mix spreads the population across handset models; -dry-run
// skips the server entirely and prints the population study.
//
//	crowdd -addr :8077 &
//	crowdload -addr http://127.0.0.1:8077 -devices 1000000
//
// Against a cluster (docs/CLUSTER.md), -peers lists the other nodes:
// uploads are sprayed across all of them, a worker whose stream errors
// fails over to the next node, and after the run the tool verifies the
// cluster-level contract — converged digests, every acknowledged
// submission present on every live node, bit-identical bins — exiting
// non-zero on any miss, even if a node died mid-run.
package main

import (
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

	"accubench/internal/fleetsim"
	"accubench/internal/obs"
	"accubench/internal/soc"
	"accubench/internal/units"
	"accubench/internal/wire"
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
		concurrency = fs.Int("concurrency", 16, "uploading workers, one wire stream each")
		seed        = fs.Int64("seed", 1, "random seed")
		ambientLo   = fs.Float64("ambient-lo", 12, "lowest wild ambient, °C")
		ambientHi   = fs.Float64("ambient-hi", 38, "highest wild ambient, °C")
		sigma       = fs.Float64("sigma", 0.55, "population leakage log-normal sigma")
		binNoise    = fs.Float64("bin-noise", 0.35, "fab binning-measurement noise")
		retries     = fs.Int("retries", 50, "max retries per batch before the run fails")
		peersFlag   = fs.String("peers", "", "comma-separated additional crowdd base URLs; uploads are sprayed across -addr plus these, and after the run every acknowledged submission is verified present on every node with bit-identical bins")
		batchK      = fs.Int("batch", 64, "submissions per batch frame")
		fleetWork   = fs.Int("fleet-workers", 0, "fleet stepper goroutines (0 = GOMAXPROCS); results are bit-identical at any worker count")
		mixF        = fs.String("fleet-mix", "", `model mix, e.g. "Nexus 5=3,Google Pixel=1" — weights apportion -devices; empty uses -model alone`)
		dryRun      = fs.Bool("dry-run", false, "simulate and print the population study without a server")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *devices <= 0 {
		return fmt.Errorf("need -devices > 0")
	}
	if *concurrency <= 0 {
		return fmt.Errorf("need -concurrency > 0")
	}
	if *batchK <= 0 {
		return fmt.Errorf("need -batch > 0")
	}
	if *dryRun && *peersFlag != "" {
		return fmt.Errorf("-dry-run is simulation-only; drop -peers")
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

	// Build the population: cohort specs for the batched engine, with the
	// silicon lottery and wild ambients drawn inside fleetsim.New.
	specs, err := parseMix(*mixF, model, *devices)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry("crowdload_")
	fl, err := fleetsim.New(fleetsim.Config{
		Seed:      *seed,
		Cohorts:   specs,
		AmbientLo: units.Celsius(*ambientLo),
		AmbientHi: units.Celsius(*ambientHi),
		Sigma:     *sigma,
		BinNoise:  *binNoise,
		Workers:   *fleetWork,
		Metrics:   reg,
	})
	if err != nil {
		return err
	}
	if *dryRun {
		return dryRunFleet(stdout, fl, reg)
	}
	modelNames := make([]string, 0, len(fl.Cohorts()))
	for _, c := range fl.Cohorts() {
		modelNames = append(modelNames, c.Model().Name)
	}
	if len(nodes) == 1 {
		fmt.Fprintf(stdout, "crowdload: %d devices (%s) → %s (%d workers, batches of %d)\n", *devices, describeFleet(fl), *addr, *concurrency, *batchK)
	} else {
		fmt.Fprintf(stdout, "crowdload: %d devices (%s) sprayed across %d nodes (%d workers, batches of %d)\n", *devices, describeFleet(fl), len(nodes), *concurrency, *batchK)
	}
	// One shared transport for the whole run, tuned so every worker keeps
	// a warm connection: the default keeps only 2 idle conns per host, so
	// with more workers than that a reopened stream or a verification GET
	// would pay a fresh TCP handshake.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = *concurrency
	transport.MaxIdleConns = 4 * *concurrency
	client := &http.Client{Timeout: 30 * time.Second, Transport: transport}
	// Streams live longer than any single request, so they bypass the
	// client's 30 s whole-request timeout while sharing its transport.
	streamClient := &http.Client{Transport: transport}

	// Snapshot the counters first: the servers may already hold records, so
	// every accounting figure below is a delta against this baseline.
	base, err := fetchClusterMetrics(client, nodes)
	if err != nil {
		return err
	}

	var sent, retried, failed, implausible atomic.Uint64
	var postNanos atomic.Int64
	var ackedMu sync.Mutex
	var acked []string // device IDs whose upload was acknowledged
	start := time.Now()

	// The fleet engine feeds finished benchmarks into items; upload
	// workers drain it. The engine produces in shard bursts while uploads
	// stream out concurrently, so the channel carries a buffer.
	items := make(chan wire.Submission, 1024)
	var simTime time.Duration
	prodErr := make(chan error, 1)
	go func() {
		defer close(items)
		t0 := time.Now()
		err := fl.RunWild(func(s fleetsim.Submission) {
			ws := wire.Submission{Device: s.Device, Model: s.Model, Score: s.Score, Cooldown: make([]wire.Point, len(s.Cooldown))}
			for i, p := range s.Cooldown {
				ws.Cooldown[i] = wire.Point{AtSeconds: p.At.Seconds(), TempC: float64(p.Reading)}
			}
			if plausible(ws) != nil {
				// Lottery-tail thermal runaway: the trace would fail the
				// server's ingest validation, so don't upload it.
				implausible.Add(1)
				return
			}
			items <- ws
		})
		simTime = time.Since(t0)
		prodErr <- err
	}()

	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(home int) {
			defer wg.Done()
			wireWorker(wireWorkerConfig{
				client:    streamClient,
				nodes:     nodes,
				home:      home,
				batch:     *batchK,
				retries:   *retries,
				stderr:    stderr,
				sent:      &sent,
				retried:   &retried,
				failed:    &failed,
				postNanos: &postNanos,
				ackedMu:   &ackedMu,
				acked:     &acked,
			}, items)
		}(w % len(nodes))
	}
	wg.Wait()
	if err := <-prodErr; err != nil {
		return err
	}
	elapsed := time.Since(start)

	if failed.Load() > 0 {
		return fmt.Errorf("%d submissions failed", failed.Load())
	}

	fmt.Fprintf(stdout, "\nuploaded %d submissions in %v (%.1f sub/s end to end, %d batch retries)\n",
		sent.Load(), elapsed.Round(time.Millisecond), float64(sent.Load())/elapsed.Seconds(), retried.Load())
	if n := implausible.Load(); n > 0 {
		fmt.Fprintf(stdout, "withheld %d implausible traces (silicon-lottery thermal-runaway tail — would fail ingest validation)\n", n)
	}
	fmt.Fprintf(stdout, "device-sim time %v, batch ack wait %v total across %d workers\n",
		simTime.Round(time.Millisecond), time.Duration(postNanos.Load()).Round(time.Millisecond), *concurrency)

	// An acked batch is already committed — and in a cluster, held by a
	// replica too — so nothing is left in flight. Standalone, one scrape
	// of the counters settles the accounting. A cluster must also show
	// the cluster-level contract: converged digests, every acknowledged
	// submission present on every live node, bit-identical bins.
	binsNode := nodes[0]
	if len(nodes) > 1 {
		live, err := verifyCluster(client, stdout, nodes, modelNames, acked)
		if err != nil {
			return err
		}
		binsNode = live[0]
	}
	metrics, err := fetchClusterMetrics(client, nodes)
	if err != nil {
		return err
	}
	// settled sums a counter's delta across every node still answering
	// /metrics. In cluster mode a dead node's local-ingest counts drop out
	// of the sum; the convergence check above is what proves nothing was
	// lost.
	settled := func(name string) uint64 {
		var sum uint64
		for i, m := range metrics {
			if m != nil {
				sum += m[name] - base[i][name]
			}
		}
		return sum
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
	return nil
}

// verifyCluster is the cluster-mode acceptance gate: every node that is
// still alive must converge to the same per-model digests, hold every
// acknowledged submission, and serve bit-identical bins for every model.
// Any acknowledged upload missing anywhere is a replication bug and
// fails the run. Returns the live node set.
func verifyCluster(client *http.Client, stdout io.Writer, nodes, models, acked []string) ([]string, error) {
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

	for _, model := range models {
		if err := waitBinsIdentical(client, live, model, 30*time.Second); err != nil {
			return nil, err
		}
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

// printBins prints the model's bins. It reads once: it runs after every
// batch was acked (and, in a cluster, after the convergence check), and
// the server serves bins folded from sketches every commit keeps
// current, so the read already counts every stored submission.
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
