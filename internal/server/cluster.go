package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"accubench/internal/hlc"
	"accubench/internal/ingest"
	"accubench/internal/obs"
	"accubench/internal/replication"
	"accubench/internal/store"
	"accubench/internal/wal"
)

// forwardedHeader marks a proxied submission so the receiving node
// ingests it instead of routing again — two nodes with transiently
// different ring views must not bounce an upload between them.
const forwardedHeader = "X-Crowd-Forwarded"

// ClusterConfig makes a Server one member of a replicated, sharded
// crowdd cluster (topology and failure modes in docs/CLUSTER.md).
type ClusterConfig struct {
	// NodeID is this node's identity: its name on the hash ring and the
	// Origin stamped into every record it ingests. Required.
	NodeID string
	// Peers maps every other node's ID to its base URL. The cluster
	// membership is NodeID plus these.
	Peers map[string]string
	// Replicas is each model's replica-set size, primary included; 0
	// means full replication (every node serves complete bins).
	Replicas int
	// AckTimeout bounds how long a submission's 202 waits for one
	// replica acknowledgement after the local durable commit.
	AckTimeout time.Duration
	// ShipInterval is the replication batching window.
	ShipInterval time.Duration
	// ReconcileInterval is the anti-entropy cadence.
	ReconcileInterval time.Duration
	// SnapshotGap is the reconcile pull size that counts as snapshot
	// catch-up.
	SnapshotGap int
	// Client, when non-nil, carries all peer HTTP traffic — submission
	// proxying, replication shipping, and anti-entropy pulls. The
	// injection seam internal/chaos threads its fault-plan RoundTripper
	// through.
	Client *http.Client
	// Now, when non-nil, is the HLC's physical-clock source (hlc.Manual
	// in tests and chaos scenarios; time.Now otherwise).
	Now func() time.Time
}

// clusterCommitter wraps the node's durable commit path with HLC
// stamping: a record ingested here is stamped once — before the WAL
// append, so its cluster-wide identity is as durable as the record —
// while records arriving already stamped (replication applies) pass
// through untouched.
type clusterCommitter struct {
	nodeID string
	clock  *hlc.Clock
	base   *wal.Persister // nil when the node runs in-memory
	st     *store.Store
}

// CommitBatch stamps and group-commits a whole batch as one WAL append.
// It is the ingest pipeline's Committer and the replica side of
// replication, as replication.Config.Apply: a shipped batch or an
// anti-entropy pull arrives stamped and commits as one group append.
func (c *clusterCommitter) CommitBatch(recs []*store.Record) error {
	for _, r := range recs {
		if r.Stamp().IsZero() {
			r.SetStamp(c.nodeID, c.clock.Now())
		}
	}
	if c.base != nil {
		return c.base.CommitBatch(recs)
	}
	for _, r := range recs {
		seq, err := c.st.Put(*r)
		if err != nil {
			return err
		}
		r.Seq = seq
	}
	return nil
}

// initCluster builds the node's clock, committer and replicator, and
// mounts the cluster routes. Called from New when Config.Cluster is set,
// after the store and persistence exist but before the pipeline (which
// needs the committer).
func (s *Server) initCluster() error {
	cc := s.cfg.Cluster
	if cc.NodeID == "" {
		return errors.New("server: cluster config needs a NodeID")
	}
	s.clock = hlc.NewClock(cc.Now)
	s.rmet = obs.NewReplicationMetrics(s.reg)
	s.committer = &clusterCommitter{nodeID: cc.NodeID, clock: s.clock, base: s.pers, st: s.store}
	s.peerClient = cc.Client
	if s.peerClient == nil {
		s.peerClient = &http.Client{Timeout: 5 * time.Second}
	}
	repl, err := replication.New(replication.Config{
		NodeID:            cc.NodeID,
		Peers:             cc.Peers,
		Replicas:          cc.Replicas,
		Clock:             s.clock,
		Store:             s.store,
		Apply:             s.committer.CommitBatch,
		AckTimeout:        cc.AckTimeout,
		ShipInterval:      cc.ShipInterval,
		ReconcileInterval: cc.ReconcileInterval,
		SnapshotGap:       cc.SnapshotGap,
		Metrics:           s.rmet,
		Client:            s.peerClient,
	})
	if err != nil {
		return err
	}
	s.repl = repl
	return nil
}

// registerClusterRoutes mounts the peer-facing endpoints. Separate from
// initCluster because the route middleware (httpReqs/httpDur) is built
// after the pipeline.
func (s *Server) registerClusterRoutes() {
	s.route("POST /v1/replicate", s.handleReplicatePost)
	s.route("GET /v1/replicate", s.handleReplicateGet)
	s.route("GET /v1/digest", s.handleDigest)
}

// handleClusterSubmit is the cluster-mode submission path: proxy the
// upload to its shard primary and relay the answer, so clients never
// learn the topology (or ingest here if we are the primary, the primary
// is down, or the upload was already forwarded once), and acknowledge
// only after the record is durable locally AND held by at least one
// replica — the property that makes an acknowledged submission survive
// any single node kill.
func (s *Server) handleClusterSubmit(w http.ResponseWriter, r *http.Request, body []byte) {
	model := peekModel(body)
	if model != "" && !s.repl.IsPrimary(model) && r.Header.Get(forwardedHeader) == "" {
		if base, ok := s.repl.PeerURL(s.repl.Primary(model)); ok {
			if s.forwardSubmit(w, base, body) {
				s.rmet.Forwarded.Inc()
				return
			}
			// Primary unreachable: ingest here. Safe — the record's
			// identity is (origin, stamp), never colliding with the
			// primary's, and anti-entropy converges the shard.
			s.rmet.IngestFallback.Inc()
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SubmitTimeout)
	defer cancel()
	rec, err := s.pipe.SubmitWait(ctx, body)
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrBadPayload):
		writeJSON(w, http.StatusBadRequest, submitResponse{Status: "rejected", Error: err.Error()})
		return
	case errors.Is(err, ingest.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, submitResponse{Status: "shutting down", Error: err.Error()})
		return
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, submitResponse{Status: "overloaded", Error: "commit did not finish in time"})
		return
	default:
		writeJSON(w, http.StatusServiceUnavailable, submitResponse{Status: "error", Error: err.Error()})
		return
	}
	if err := s.repl.ShipWaitBatch([]store.Record{rec}); err != nil {
		// Durable here but on no replica yet: refuse the ack so the
		// client retries (resubmission is dup-safe per device — the
		// newest stamp wins). The local copy stays; anti-entropy
		// spreads it once a peer returns.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, submitResponse{Status: "unreplicated", Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{Status: "committed"})
}

// forwardSubmit proxies an upload to the primary and relays the
// response; false means the primary was unreachable and nothing was
// written to w.
//
// The relay is buffered: the primary's response is read fully before a
// single byte goes to the client. If the connection to the primary
// breaks mid-body — after the primary may already have committed — the
// client gets a clean 307 to the primary instead of a truncated relay,
// and retries there directly (resubmission is dup-safe: the record's
// identity is (origin, stamp) and the newest stamp per device wins).
func (s *Server) forwardSubmit(w http.ResponseWriter, base string, body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/submissions", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, s.cfg.Cluster.NodeID)
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	relay, err := io.ReadAll(resp.Body)
	if err != nil {
		s.rmet.ForwardBodyFails.Inc()
		w.Header().Set("Location", base+"/v1/submissions")
		writeJSON(w, http.StatusTemporaryRedirect, submitResponse{Status: "redirect"})
		return true
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	w.Write(relay)
	return true
}

// peekModel extracts the model from an upload without running the full
// decode — routing needs only the shard key, and the primary re-decodes
// and validates everything anyway.
func peekModel(body []byte) string {
	var peek struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		return ""
	}
	return peek.Model
}

// handleReplicatePost applies a peer's shipped batch.
func (s *Server) handleReplicatePost(w http.ResponseWriter, r *http.Request) {
	batch, err := replication.DecodeBatch(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		// Protocol garbage — truncated bodies, unstamped or unidentified
		// records — is the sender's bug, not ours: refuse it at the
		// boundary instead of surfacing a 500 from ApplyRemote.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.repl.ApplyRemote(batch.Records)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleReplicateGet serves a full model dump — the snapshot-shipping
// side of anti-entropy catch-up.
func (s *Server) handleReplicateGet(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		http.Error(w, "missing model parameter", http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, replication.Batch{
		From:    s.cfg.Cluster.NodeID,
		Records: s.store.Model(model),
	})
}

// handleDigest serves the per-model digests anti-entropy compares.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.DigestAll())
}

// Replicator exposes the node's replicator in cluster mode (nil
// otherwise) — load generators and tests drive reconciliation through
// it.
func (s *Server) Replicator() *replication.Replicator { return s.repl }

// Clock exposes the node's hybrid logical clock in cluster mode (nil
// otherwise).
func (s *Server) Clock() *hlc.Clock { return s.clock }
