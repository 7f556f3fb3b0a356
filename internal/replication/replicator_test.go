package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"accubench/internal/hlc"
	"accubench/internal/obs"
	"accubench/internal/store"
)

// newNode builds a Replicator around a fresh store whose Apply path is
// a plain store.Put per record — the durable-commit seam the server
// fills with its WAL in production.
func newNode(t *testing.T, id string, peers map[string]string, tweak func(*Config)) (*Replicator, *store.Store) {
	t.Helper()
	st := store.New(4)
	cfg := Config{
		NodeID: id,
		Peers:  peers,
		Clock:  hlc.NewClock(nil),
		Store:  st,
		Apply: func(recs []*store.Record) error {
			for _, rec := range recs {
				seq, err := st.Put(*rec)
				if err != nil {
					return err
				}
				rec.Seq = seq
			}
			return nil
		},
		ShipInterval:      time.Millisecond,
		ReconcileInterval: time.Hour, // tests drive ReconcileNow explicitly
		Metrics:           obs.NewReplicationMetrics(obs.NewRegistry("")),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, st
}

// peerHandler exposes a Replicator over the two cluster paths exactly
// as internal/server does, so tests can wire real replicators together.
func peerHandler(r *Replicator, st *store.Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/digest", func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(st.DigestAll())
	})
	mux.HandleFunc("/v1/replicate", func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodGet {
			json.NewEncoder(w).Encode(Batch{From: r.NodeID(), Records: st.Model(req.URL.Query().Get("model"))})
			return
		}
		var b Batch
		if err := json.NewDecoder(req.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := r.ApplyRemote(b.Records)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	return mux
}

func stampedRec(origin string, wall int64, logical uint16, device string) store.Record {
	r := store.Record{Device: device, Model: "Pixel 2", Score: 1000, Accepted: true}
	r.SetStamp(origin, hlc.Timestamp{Wall: wall, Logical: logical})
	return r
}

func TestShipWaitAcksAfterReplicaApply(t *testing.T) {
	// One live peer node behind a real handler.
	peer, peerStore := newNode(t, "n2", nil, nil)
	srv := httptest.NewServer(peerHandler(peer, peerStore))
	defer srv.Close()

	r, st := newNode(t, "n1", map[string]string{"n2": srv.URL}, nil)
	r.Start()
	defer r.Close()

	rec := store.Record{Device: "d0", Model: "Pixel 2", Score: 1234, Accepted: true}
	r.Stamp(&rec)
	if rec.Origin != "n1" || rec.Stamp().IsZero() {
		t.Fatalf("Stamp left the record unstamped: %+v", rec)
	}
	if _, err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := r.ShipWaitBatch([]store.Record{rec}); err != nil {
		t.Fatalf("ShipWaitBatch: %v", err)
	}
	k, _ := rec.Key()
	if !peerStore.HasKey(rec.Model, k) {
		t.Fatal("acknowledged record missing from the replica store")
	}
	// The replica's clock heard the stamp: its next stamp orders after.
	if !rec.Stamp().Before(peer.cfg.Clock.Now()) {
		t.Fatal("replica clock did not fold in the shipped stamp")
	}
}

func TestShipWaitFailsWithDeadPeer(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // dead from the start
	r, _ := newNode(t, "n1", map[string]string{"n2": srv.URL}, func(c *Config) {
		c.AckTimeout = 150 * time.Millisecond
	})
	r.Start()
	defer r.Close()

	rec := store.Record{Device: "d0", Model: "Pixel 2", Score: 1}
	r.Stamp(&rec)
	if err := r.ShipWaitBatch([]store.Record{rec}); err != ErrNoAck {
		t.Fatalf("ShipWaitBatch against a dead peer: %v, want ErrNoAck", err)
	}
	if got := r.met.AckTimeouts.Value(); got != 1 {
		t.Fatalf("AckTimeouts = %d, want 1", got)
	}
}

func TestShipWaitNoPeersIsLocalOnly(t *testing.T) {
	r, _ := newNode(t, "solo", nil, nil)
	rec := store.Record{Device: "d0", Model: "Pixel 2"}
	r.Stamp(&rec)
	if err := r.ShipWaitBatch([]store.Record{rec}); err != nil {
		t.Fatalf("single-node ShipWaitBatch: %v", err)
	}
}

func TestApplyRemoteIsIdempotent(t *testing.T) {
	r, st := newNode(t, "n1", nil, nil)
	batch := []store.Record{
		stampedRec("n2", 100, 0, "da"),
		stampedRec("n2", 100, 1, "db"),
	}
	res, err := r.ApplyRemote(batch)
	if err != nil || res.Applied != 2 || res.Dups != 0 {
		t.Fatalf("first apply: %+v, %v", res, err)
	}
	res, err = r.ApplyRemote(batch)
	if err != nil || res.Applied != 0 || res.Dups != 2 {
		t.Fatalf("replayed apply: %+v, %v — replay must collapse into dups", res, err)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d records after replay, want 2", st.Len())
	}
	// Local sequence numbers were assigned fresh, not taken from the wire.
	for _, rec := range st.Model("Pixel 2") {
		if rec.Seq == 0 {
			t.Fatalf("applied record has no local seq: %+v", rec)
		}
	}
	if _, err := r.ApplyRemote([]store.Record{{Device: "x", Model: "m"}}); err == nil {
		t.Fatal("ApplyRemote accepted an unstamped record")
	}
}

// TestApplyRemoteFailedApplyReleasesKeys pins the batch contract's
// failure path: when the durable commit fails, every key the batch
// reserved is released and nothing counts as applied, so retrying the
// same batch applies all of it.
func TestApplyRemoteFailedApplyReleasesKeys(t *testing.T) {
	fail := true
	r, st := newNode(t, "n1", nil, func(c *Config) {
		commit := c.Apply
		c.Apply = func(recs []*store.Record) error {
			if fail {
				return errors.New("disk full")
			}
			return commit(recs)
		}
	})
	batch := []store.Record{
		stampedRec("n2", 100, 0, "da"),
		stampedRec("n2", 100, 1, "db"),
		stampedRec("n2", 101, 0, "dc"),
	}
	res, err := r.ApplyRemote(batch)
	if err == nil || res.Applied != 0 {
		t.Fatalf("apply through a failing commit: %+v, %v — want an error and nothing applied", res, err)
	}
	for _, rec := range batch {
		k, _ := rec.Key()
		if st.HasKey(rec.Model, k) {
			t.Fatalf("failed apply left %s's key reserved", rec.Device)
		}
	}
	if st.Len() != 0 || r.met.Applied.Value() != 0 {
		t.Fatalf("failed apply stored %d records, counted %d applied", st.Len(), r.met.Applied.Value())
	}

	fail = false
	res, err = r.ApplyRemote(batch)
	if err != nil || res.Applied != len(batch) || res.Dups != 0 {
		t.Fatalf("retried apply: %+v, %v — want all %d applied", res, err, len(batch))
	}
	if st.Len() != len(batch) {
		t.Fatalf("store holds %d records after the retry, want %d", st.Len(), len(batch))
	}
}

// TestApplyRemoteBadRecordCommitsNothing: one record a replica cannot
// commit, at any position, refuses the whole batch before any key is
// reserved or any record reaches the commit path.
func TestApplyRemoteBadRecordCommitsNothing(t *testing.T) {
	for _, bad := range []struct {
		name  string
		spoil func(*store.Record)
	}{
		{"unstamped", func(r *store.Record) { r.Origin, r.HLCWall, r.HLCLogical = "", 0, 0 }},
		{"no model", func(r *store.Record) { r.Model = "" }},
		{"no device", func(r *store.Record) { r.Device = "" }},
	} {
		for pos := 0; pos < 3; pos++ {
			t.Run(fmt.Sprintf("%s at %d", bad.name, pos), func(t *testing.T) {
				commits := 0
				r, st := newNode(t, "n1", nil, func(c *Config) {
					commit := c.Apply
					c.Apply = func(recs []*store.Record) error {
						commits++
						return commit(recs)
					}
				})
				batch := []store.Record{
					stampedRec("n2", 100, 0, "da"),
					stampedRec("n2", 100, 1, "db"),
					stampedRec("n2", 101, 0, "dc"),
				}
				bad.spoil(&batch[pos])
				if res, err := r.ApplyRemote(batch); err == nil || res.Applied != 0 {
					t.Fatalf("ApplyRemote = %+v, %v — want the batch refused", res, err)
				}
				if commits != 0 || st.Len() != 0 {
					t.Fatalf("refused batch reached the commit path %d times, store holds %d", commits, st.Len())
				}
				for i, rec := range batch {
					if k, ok := rec.Key(); ok && st.HasKey(rec.Model, k) {
						t.Fatalf("refused batch reserved record %d's key", i)
					}
				}
			})
		}
	}
}

// TestReconcileRepairsDivergence drives the anti-entropy core: a node
// that missed every live ship pulls the divergent models from its peer
// and converges to an identical digest.
func TestReconcileRepairsDivergence(t *testing.T) {
	a, aStore := newNode(t, "na", nil, nil)
	srv := httptest.NewServer(peerHandler(a, aStore))
	defer srv.Close()

	// Seed A with records B never saw — enough to cross the snapshot gap.
	for i := 0; i < 10; i++ {
		if _, err := aStore.Put(stampedRec("na", int64(100+i), 0, fmt.Sprintf("d%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	b, bStore := newNode(t, "nb", map[string]string{"na": srv.URL}, func(c *Config) {
		c.SnapshotGap = 4
	})
	if err := b.ReconcileNow(); err != nil {
		t.Fatalf("ReconcileNow: %v", err)
	}
	da, _ := aStore.Digest("Pixel 2")
	db, ok := bStore.Digest("Pixel 2")
	if !ok || da != db {
		t.Fatalf("digests diverge after reconcile: %+v vs %+v", da, db)
	}
	if got := b.met.ReconcileRepairs.Value(); got != 1 {
		t.Fatalf("ReconcileRepairs = %d, want 1", got)
	}
	if got := b.met.ReconcilePulled.Value(); got != 10 {
		t.Fatalf("ReconcilePulled = %d, want 10", got)
	}
	if got := b.met.SnapshotCatchups.Value(); got != 1 {
		t.Fatalf("SnapshotCatchups = %d, want 1 (pull of 10 >= gap 4)", got)
	}

	// A second round finds nothing to pull.
	if err := b.ReconcileNow(); err != nil {
		t.Fatal(err)
	}
	if got := b.met.ReconcileRepairs.Value(); got != 1 {
		t.Fatalf("converged reconcile still repaired: %d rounds", got)
	}
}

func TestReconcileCountsDeadPeer(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	b, _ := newNode(t, "nb", map[string]string{"na": srv.URL}, nil)
	if err := b.ReconcileNow(); err == nil {
		t.Fatal("ReconcileNow against a dead peer returned nil")
	}
	if got := b.met.ReconcileErrors.Value(); got != 1 {
		t.Fatalf("ReconcileErrors = %d, want 1", got)
	}
}

// TestShipperAbandonsToAntiEntropy: a dead peer exhausts retries, the
// records are dropped and counted, and the shipper keeps serving later
// traffic instead of wedging.
func TestShipperAbandonsToAntiEntropy(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	r, _ := newNode(t, "n1", map[string]string{"n2": srv.URL}, func(c *Config) {
		c.AckTimeout = 50 * time.Millisecond
	})
	r.Start()
	defer r.Close()

	rec := store.Record{Device: "d0", Model: "Pixel 2"}
	r.Stamp(&rec)
	// ErrNoAck after the ack timeout: the shipper keeps retrying the
	// record after its waiter gave up.
	_ = r.ShipWaitBatch([]store.Record{rec})
	deadline := time.Now().Add(5 * time.Second)
	for r.met.ShipDropped.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shipper never abandoned the batch: errors=%d dropped=%d",
				r.met.ShipErrors.Value(), r.met.ShipDropped.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.met.ShipErrors.Value() < shipRetries {
		t.Fatalf("ShipErrors = %d, want >= %d retries", r.met.ShipErrors.Value(), shipRetries)
	}
}

func TestReplicaTargetsRespectReplicaCount(t *testing.T) {
	peers := map[string]string{"n2": "http://x", "n3": "http://x"}
	r, _ := newNode(t, "n1", peers, func(c *Config) { c.Replicas = 2 })
	// With replicas=2 each model has one primary + one follower; this
	// node ships to at most one peer per model, and for some model it
	// must be outside the set entirely or inside it.
	for _, model := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		set := r.Ring().ReplicaSet(model, 2)
		if len(set) != 2 {
			t.Fatalf("ReplicaSet(%s) = %v", model, set)
		}
		targets := r.replicaTargets(model)
		want := 0
		for _, n := range set {
			if n != "n1" {
				want++
			}
		}
		if len(targets) != want {
			t.Fatalf("model %s: %d ship targets, want %d (set %v)", model, len(targets), want, set)
		}
	}
	// Replicas=0 means every peer.
	full, _ := newNode(t, "n1", peers, nil)
	if got := full.replicaTargets("anything"); len(got) != 2 {
		t.Fatalf("full replication ships to %d peers, want 2", len(got))
	}
}
