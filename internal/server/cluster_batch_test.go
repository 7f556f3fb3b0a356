package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"accubench/internal/hlc"
	"accubench/internal/replication"
	"accubench/internal/server"
	"accubench/internal/store"
	"accubench/internal/wire"
)

// Batch-path tests for the replicated commit: a replica commits a
// shipped batch or a reconcile pull as one WAL group append, a stream
// batch ships to each replica as one batch, and a stream batch whose
// models have different primaries commits everywhere with its forwards
// running beside the local commit.

// quietDurable makes a cluster node WAL-backed and turns off background
// anti-entropy, so the only replication traffic is what a test sends.
func quietDurable(t *testing.T) func(int, *server.Config) {
	return func(_ int, cfg *server.Config) {
		cfg.DataDir = t.TempDir()
		cfg.Cluster.ReconcileInterval = time.Hour
	}
}

// walCounts reads a node's wal_appends_total and wal_fsyncs_total.
func walCounts(t *testing.T, srv *server.Server) (appends, fsyncs uint64) {
	t.Helper()
	c, ok := srv.PersistCounters()
	if !ok {
		t.Fatal("node runs without a WAL")
	}
	return c.Log.Appends, c.Log.Fsyncs
}

// TestApplyRemoteOneGroupCommit: a catch-up of 500 new records costs the
// replica one WAL group append, not one group commit per record.
func TestApplyRemoteOneGroupCommit(t *testing.T) {
	nodes := startCluster(t, 2, quietDurable(t))
	srv := nodes[0].srv
	recs := make([]store.Record, 500)
	for i := range recs {
		recs[i] = store.Record{Device: fmt.Sprintf("catchup-%03d", i), Model: "Nexus 5", Score: 1000, Accepted: true}
		recs[i].SetStamp("n2", hlc.Timestamp{Wall: int64(1000 + i)})
	}
	appends0, fsyncs0 := walCounts(t, srv)
	res, err := srv.Replicator().ApplyRemote(recs)
	if err != nil || res.Applied != len(recs) {
		t.Fatalf("ApplyRemote = %+v, %v — want all %d applied", res, err, len(recs))
	}
	appends, fsyncs := walCounts(t, srv)
	if appends-appends0 != uint64(len(recs)) {
		t.Errorf("wal_appends_total rose by %d, want %d", appends-appends0, len(recs))
	}
	if fsyncs-fsyncs0 > 2 {
		t.Errorf("wal_fsyncs_total rose by %d for one applied batch, want at most 2", fsyncs-fsyncs0)
	}
}

// TestReconcilePullRefusesBadRecord: a peer's model dump crosses the
// same trust boundary as a shipped batch. A dump holding a record the
// store would refuse fails the pull before anything is logged, so the
// node still boots from its data directory afterwards.
func TestReconcilePullRefusesBadRecord(t *testing.T) {
	bad := store.Record{Device: "no-model", Score: 1000, Accepted: true}
	bad.SetStamp("n2", hlc.Timestamp{Wall: 100})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/digest", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"Nexus 5":{"records":1,"digest":42}}`)
	})
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(replication.Batch{From: "n2", Records: []store.Record{bad}})
	})
	peer := httptest.NewServer(mux)
	defer peer.Close()

	cfg := server.Config{
		DataDir: t.TempDir(),
		Cluster: &server.ClusterConfig{
			NodeID:            "n1",
			Peers:             map[string]string{"n2": peer.URL},
			ReconcileInterval: time.Hour,
		},
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	if err := srv.Replicator().ReconcileNow(); err == nil {
		t.Error("ReconcileNow merged a dump holding a record without a model")
	}
	if appends, _ := walCounts(t, srv); appends != 0 {
		t.Errorf("wal_appends_total = %d after the refused pull, want 0", appends)
	}
	srv.Crash()

	rebooted, err := server.New(cfg)
	if err != nil {
		t.Fatalf("reboot on the data directory: %v", err)
	}
	rebooted.Close()
}

// TestStreamShipsOneBatchPerStreamBatch: the primary enqueues a stream
// batch's records to its replica whole, so each 64-record batch reaches
// the replica in exactly one replication POST.
func TestStreamShipsOneBatchPerStreamBatch(t *testing.T) {
	nodes := startCluster(t, 2, quietDurable(t))
	primary, _ := findRouting(t, nodes, "Nexus 5")
	client := &http.Client{Timeout: 5 * time.Second}
	before := scrapeMetrics(t, client, primary.url)["crowdd_repl_ship_batches_total"]

	st, err := wire.OpenStream(client, primary.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const batches, size = 50, 64
	for b := 0; b < batches; b++ {
		batch := make([]wire.Submission, size)
		for i := range batch {
			batch[i] = wireAccepted(t, fmt.Sprintf("ship-%d-%d", b, i), 1000+float64(i%8)*40)
		}
		ack, err := st.Do(batch)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Err != "" || ack.Committed != size {
			t.Fatalf("batch %d ack = %+v, want %d committed", b, ack, size)
		}
	}
	after := scrapeMetrics(t, client, primary.url)["crowdd_repl_ship_batches_total"]
	if after-before != batches {
		t.Errorf("repl_ship_batches_total rose by %d over %d stream batches, want exactly %d", after-before, batches, batches)
	}
}

// TestStreamMixedBatchLocalAndForwarded sends stream batches whose
// models have three different primaries to one node: its own share
// commits locally while the other two forward. With every node up the
// whole batch commits and replicates everywhere; with one of the
// forward targets killed, that share falls back to local ingest and the
// ack still covers the whole batch.
func TestStreamMixedBatchLocalAndForwarded(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	entry := nodes[0]
	repl := entry.srv.Replicator()
	// One model per primary, the entry node's own first.
	models := make([]string, len(nodes))
	for i, found := 0, 0; found < len(nodes); i++ {
		m := fmt.Sprintf("model-%d", i)
		for j, node := range nodes {
			if models[j] == "" && repl.Primary(m) == node.id {
				models[j] = m
				found++
			}
		}
	}
	mixed := func(tag string) ([]wire.Submission, []string) {
		var batch []wire.Submission
		var devices []string
		for i := 0; i < 4; i++ {
			for _, m := range models {
				dev := fmt.Sprintf("%s-%s-%d", tag, m, i)
				ws := wireAccepted(t, dev, 1000+float64(i)*40)
				ws.Model = m
				batch = append(batch, ws)
				devices = append(devices, dev)
			}
		}
		return batch, devices
	}
	send := func(batch []wire.Submission) {
		t.Helper()
		st, err := wire.OpenStream(client, entry.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ack, err := st.Do(batch)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Err != "" || int(ack.Committed) != len(batch) || ack.Dropped != 0 {
			t.Fatalf("mixed batch ack = %+v, want all %d committed", ack, len(batch))
		}
	}

	m0 := scrapeMetrics(t, client, entry.url)
	batch, acked := mixed("up")
	send(batch)
	m1 := scrapeMetrics(t, client, entry.url)
	if got := m1["crowdd_wire_forwarded_batches_total"] - m0["crowdd_wire_forwarded_batches_total"]; got != 2 {
		t.Errorf("wire_forwarded_batches_total rose by %d, want 2 (one per remote primary)", got)
	}
	waitConverged(t, client, nodes, 15*time.Second)
	assertDevicesHeld(t, client, nodes, acked)

	// Kill the third model's primary: its share falls back to the entry
	// node, which replicates it to the remaining peer.
	nodes[2].kill()
	batch, more := mixed("down")
	send(batch)
	acked = append(acked, more...)
	m2 := scrapeMetrics(t, client, entry.url)
	if got := m2["crowdd_wire_forward_fallbacks_total"] - m1["crowdd_wire_forward_fallbacks_total"]; got != 1 {
		t.Errorf("wire_forward_fallbacks_total rose by %d, want 1", got)
	}
	waitConverged(t, client, nodes[:2], 15*time.Second)
	assertDevicesHeld(t, client, nodes[:2], acked)
}
