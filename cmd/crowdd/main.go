// Command crowdd serves the crowd-benchmarking backend of the paper's §VI
// plan: the service behind the Play-Store app. It accepts ACCUBENCH
// submissions over HTTP, estimates each upload's ambient from its cooldown
// trace, applies the strict filters, and serves each model's speed bins
// folded from a population sketch that every commit keeps current — a
// bins read counts every acknowledged submission, with no background
// re-binning and no staleness knob (docs/BINNING.md).
//
//	crowdd -addr :8077
//	crowdd -addr :8077 -shards 32 -queue 512 -accept-lo 18 -accept-hi 32
//	crowdd -addr :8077 -data-dir /var/lib/crowdd
//
// With -data-dir the submission corpus is durable: uploads commit through
// a segmented write-ahead log (group-committed fsyncs every
// -fsync-interval; 0 means every commit fsyncs synchronously), a
// background snapshotter checkpoints the store every -snapshot-every
// commits, and a restart — or a crash — recovers the full store before
// serving. A graceful SIGTERM drains the ingest pipeline, flushes the
// log and cuts a final snapshot, so the next boot replays nothing.
//
// With -node-id and -peers the process joins a replicated, sharded
// cluster (docs/CLUSTER.md): submissions are HLC-stamped, routed to
// their model's shard primary (a node that is not the primary proxies
// the upload there), acknowledged only after a durable local
// commit plus one replica acknowledgement, and kept converged by a
// periodic anti-entropy digest exchange. A node's bins lag its peers'
// only by replication lag, which GET /v1/digest's sketch_digest shows.
//
// Endpoints: POST /v1/submissions, POST /v1/stream (binary streaming
// batch ingest, docs/WIRE.md), GET /v1/bins, GET /v1/devices/{id},
// GET /healthz, GET /metrics (Prometheus text format; docs/METRICS.md
// is the reference for every series). Cluster nodes add
// POST+GET /v1/replicate and GET /v1/digest for their peers.
//
// Observability: -trace emits one JSON span sequence per submission
// (decode→filter→wal_append→store, correlated by trace ID) to stdout,
// and -debug-addr serves net/http/pprof under /debug/pprof on a
// separate listener (`make profile` captures a CPU profile under
// crowdload).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/server"
	"accubench/internal/units"
	"accubench/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "crowdd:", err)
		os.Exit(1)
	}
}

// run is the whole daemon behind a testable seam: flags come from args
// rather than the global FlagSet, the listener binds before it reports
// ready (so tests can pass 127.0.0.1:0 and learn the port via ready), and
// shutdown is driven by ctx rather than process signals.
func run(ctx context.Context, args []string, stdout io.Writer, ready func(addr string)) error {
	policy := crowd.DefaultPolicy()
	fs := flag.NewFlagSet("crowdd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8077", "listen address")
		shards        = fs.Int("shards", 16, "store shard count")
		queue         = fs.Int("queue", 256, "ingest queue depth: JSON uploads admitted but not yet committed")
		acceptLo      = fs.Float64("accept-lo", float64(policy.AcceptLo), "lowest accepted estimated ambient, °C")
		acceptHi      = fs.Float64("accept-hi", float64(policy.AcceptHi), "highest accepted estimated ambient, °C")
		idleBias      = fs.Float64("idle-bias", policy.IdleBias, "idle-floor correction subtracted from estimates, °C")
		maxK          = fs.Int("max-bins", 5, "largest bin count the clustering may discover")
		submitTimeout = fs.Duration("submit-timeout", 2*time.Second, "how long a saturated POST may block before 503")
		maxBody       = fs.Int64("max-body", 1<<20, "largest accepted upload body, bytes")
		dataDir       = fs.String("data-dir", "", "durable data directory (WAL + snapshots); empty runs in-memory")
		fsyncEvery    = fs.Duration("fsync-interval", wal.DefaultFlushEvery, "WAL group-commit window; 0 fsyncs every commit synchronously")
		snapEvery     = fs.Int("snapshot-every", wal.DefaultSnapshotEvery, "commits between background snapshots")
		segmentBytes  = fs.Int64("segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation threshold, bytes")
		chaosFsync    = fs.Duration("chaos-fsync-delay", 0, "fault injection: stall every WAL fsync this long (slow-disk emulation; needs -data-dir)")
		traceSpans    = fs.Bool("trace", false, "emit one JSON span per pipeline stage per submission to stdout")
		debugAddr     = fs.String("debug-addr", "", "serve net/http/pprof under /debug/pprof on this address; empty disables")

		// Cluster mode (docs/CLUSTER.md): set -node-id and -peers to run
		// this process as one member of a replicated, sharded cluster.
		nodeID     = fs.String("node-id", "", "cluster node ID; empty runs standalone")
		peers      = fs.String("peers", "", "comma-separated id=url peer list, e.g. n2=http://127.0.0.1:8078,n3=http://127.0.0.1:8079")
		replicas   = fs.Int("replicas", 0, "replica-set size per model, primary included; 0 replicates everywhere")
		reconcile  = fs.Duration("reconcile-interval", time.Second, "anti-entropy digest-exchange cadence")
		ackTimeout = fs.Duration("ack-timeout", 3*time.Second, "how long a submission waits for one replica acknowledgement")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	policy.AcceptLo = units.Celsius(*acceptLo)
	policy.AcceptHi = units.Celsius(*acceptHi)
	policy.IdleBias = *idleBias
	if err := policy.Validate(); err != nil {
		return err
	}

	scfg := server.Config{
		Shards:        *shards,
		QueueDepth:    *queue,
		Policy:        policy,
		MaxK:          *maxK,
		SubmitTimeout: *submitTimeout,
		MaxBodyBytes:  *maxBody,
		DataDir:       *dataDir,
		FsyncEvery:    *fsyncEvery,
		SnapshotEvery: *snapEvery,
		SegmentBytes:  *segmentBytes,
	}
	if *chaosFsync > 0 {
		d := *chaosFsync
		scfg.FsyncDelay = func() { time.Sleep(d) }
		fmt.Fprintf(stdout, "crowdd: chaos: every WAL fsync stalls %v\n", d)
	}
	if *traceSpans {
		scfg.TraceWriter = stdout
	}
	if *nodeID != "" {
		peerMap, err := parsePeers(*peers)
		if err != nil {
			return err
		}
		scfg.Cluster = &server.ClusterConfig{
			NodeID:            *nodeID,
			Peers:             peerMap,
			Replicas:          *replicas,
			AckTimeout:        *ackTimeout,
			ReconcileInterval: *reconcile,
		}
	} else if *peers != "" {
		return fmt.Errorf("-peers needs -node-id")
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	if rec, ok := srv.Recovery(); ok {
		fmt.Fprintf(stdout, "crowdd: data dir %s — restored %d records (snapshot seq %d holding %d, wal replayed %d, truncated %d torn bytes)\n",
			*dataDir, rec.Restored, rec.SnapshotSeq, rec.SnapshotRecords, rec.Replayed, rec.TruncatedBytes)
	}
	srv.Start(context.Background()) // graceful drain on shutdown, not hard abort

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// The profiling surface lives on its own listener so /debug/pprof is
	// never reachable through the public API address.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			httpSrv.Close()
			srv.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		go debugSrv.Serve(dln)
		fmt.Fprintf(stdout, "crowdd: pprof on http://%s/debug/pprof\n", dln.Addr())
	}
	fmt.Fprintf(stdout, "crowdd: listening on %s (%d shards, queue %d, window [%v, %v])\n",
		ln.Addr(), *shards, *queue, policy.AcceptLo, policy.AcceptHi)
	if scfg.Cluster != nil {
		fmt.Fprintf(stdout, "crowdd: cluster node %s with %d peers (reconcile every %v)\n",
			scfg.Cluster.NodeID, len(scfg.Cluster.Peers), *reconcile)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "crowdd: shutting down — draining ingest")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Close drains the pipeline first, then flushes the WAL and cuts the
	// final snapshot — a clean exit never needs replay on the next boot.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("shutdown persistence: %w", err)
	}
	c := srv.Counters()
	fmt.Fprintf(stdout, "crowdd: drained; received %d, stored %d (accepted %d, rejected %d), decode errors %d\n",
		c.Received, c.Stored, c.Accepted, c.Rejected, c.DecodeErrors)
	if pc, ok := srv.PersistCounters(); ok {
		fmt.Fprintf(stdout, "crowdd: persisted; wal %d appends in %d fsyncs (%d bytes, %d segments), final snapshot seq %d\n",
			pc.Log.Appends, pc.Log.Fsyncs, pc.Log.Bytes, pc.Log.Segments, pc.LastSnapshotSeq)
	}
	return nil
}

// parsePeers parses the -peers flag: comma-separated id=url pairs.
func parsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		id, u, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("malformed -peers entry %q, want id=url", pair)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("duplicate peer ID %q in -peers", id)
		}
		out[id] = strings.TrimRight(u, "/")
	}
	return out, nil
}
