package replication

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"accubench/internal/hlc"
	"accubench/internal/obs"
	"accubench/internal/store"
)

// Defaults for the knobs a Config may leave zero.
const (
	// DefaultAckTimeout bounds how long a commit waits for one replica
	// acknowledgement before the submission is failed back to the client.
	DefaultAckTimeout = 3 * time.Second
	// DefaultShipInterval is the batching window: a committed record
	// waits at most this long before its batch is POSTed.
	DefaultShipInterval = 5 * time.Millisecond
	// DefaultReconcileInterval is the anti-entropy cadence.
	DefaultReconcileInterval = time.Second
	// DefaultSnapshotGap is the repair size at which a reconcile pull is
	// counted as snapshot-shipping catch-up rather than incremental
	// repair.
	DefaultSnapshotGap = 64
	// maxQueue bounds each peer's ship queue; overflow drops the newest
	// record (counted) and leaves the repair to anti-entropy.
	maxQueue = 4096
	// batchMax bounds how many records one replication POST carries.
	batchMax = 256
	// shipRetries is how many times a failed batch POST is retried
	// before its records are abandoned to anti-entropy.
	shipRetries = 3
)

// ErrNoAck is returned by ShipWaitBatch when some record of the batch
// had no replica acknowledgement within the ack timeout.
var ErrNoAck = errors.New("replication: no replica acknowledged within the ack timeout")

// Batch is the wire form of one /v1/replicate POST: records shipped
// from one node to a peer.
type Batch struct {
	// From is the shipping node's ID.
	From string `json:"from"`
	// Records are the stamped records, local sequence numbers included
	// (the receiver discards them and assigns its own).
	Records []store.Record `json:"records"`
}

// ApplyResult is the receiver's answer to a Batch.
type ApplyResult struct {
	// Applied is how many records the receiver committed.
	Applied int `json:"applied"`
	// Dups is how many it already held.
	Dups int `json:"dups"`
}

// Config wires a Replicator into one node.
type Config struct {
	// NodeID is this node's identity — the Origin stamped into records
	// it ingests and its name on every ring.
	NodeID string
	// Peers maps every *other* node's ID to its base URL
	// (http://host:port). The ring is NodeID plus these keys.
	Peers map[string]string
	// Replicas is each model's replica-set size, primary included.
	// 0 (or anything beyond the membership) means full replication:
	// every node holds every model and any node's bins are complete.
	Replicas int
	// VNodes is the ring's virtual-node count per node (DefaultVNodes
	// when 0).
	VNodes int
	// Clock is the node's hybrid logical clock.
	Clock *hlc.Clock
	// Store is the node's record store, used for digests and reconcile
	// pulls.
	Store *store.Store
	// Apply durably commits a batch of remote records locally — the
	// node's WAL-backed commit path, one group append for the whole
	// batch. It must assign each record's local sequence number, and
	// commit all of the batch or none of it: ApplyRemote releases every
	// key of a batch whose Apply failed, so a retry can claim them again.
	Apply func([]*store.Record) error
	// AckTimeout, ShipInterval, ReconcileInterval, SnapshotGap override
	// the defaults when positive.
	AckTimeout        time.Duration
	ShipInterval      time.Duration
	ReconcileInterval time.Duration
	SnapshotGap       int
	// Metrics receives the replication series. May be nil (a throwaway
	// registry is used).
	Metrics *obs.ReplicationMetrics
	// Client is the HTTP client for peer traffic (a 5s-timeout client
	// when nil).
	Client *http.Client
}

// Replicator runs one node's half of the cluster protocol: stamping,
// shipping committed records to the replica set, applying peers'
// batches, and the anti-entropy reconcile loop.
type Replicator struct {
	cfg      Config
	ring     *Ring
	met      *obs.ReplicationMetrics
	client   *http.Client
	shippers map[string]*shipper

	mu        sync.Mutex
	applyGate sync.Mutex // serializes ApplyRemote vs reconcile pulls

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a Replicator. It does not start background work; call
// Start.
func New(cfg Config) (*Replicator, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("replication: NodeID required")
	}
	if cfg.Clock == nil || cfg.Store == nil || cfg.Apply == nil {
		return nil, errors.New("replication: Clock, Store and Apply required")
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = DefaultAckTimeout
	}
	if cfg.ShipInterval <= 0 {
		cfg.ShipInterval = DefaultShipInterval
	}
	if cfg.ReconcileInterval <= 0 {
		cfg.ReconcileInterval = DefaultReconcileInterval
	}
	if cfg.SnapshotGap <= 0 {
		cfg.SnapshotGap = DefaultSnapshotGap
	}
	met := cfg.Metrics
	if met == nil {
		met = obs.NewReplicationMetrics(obs.NewRegistry(""))
	}
	nodes := make([]string, 0, len(cfg.Peers)+1)
	nodes = append(nodes, cfg.NodeID)
	for id := range cfg.Peers {
		nodes = append(nodes, id)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	r := &Replicator{
		cfg:      cfg,
		ring:     NewRing(nodes, cfg.VNodes),
		met:      met,
		client:   client,
		shippers: make(map[string]*shipper, len(cfg.Peers)),
		stop:     make(chan struct{}),
	}
	for id, base := range cfg.Peers {
		r.shippers[id] = newShipper(r, id, base)
	}
	return r, nil
}

// Start launches the per-peer shippers and the reconcile loop.
func (r *Replicator) Start() {
	for _, sh := range r.shippers {
		r.wg.Add(1)
		go sh.loop()
	}
	r.wg.Add(1)
	go r.reconcileLoop()
}

// Close stops background work and waits for it.
func (r *Replicator) Close() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// NodeID returns this node's identity.
func (r *Replicator) NodeID() string { return r.cfg.NodeID }

// Ring returns the cluster's hash ring.
func (r *Replicator) Ring() *Ring { return r.ring }

// Primary returns the node owning model's shard.
func (r *Replicator) Primary(model string) string { return r.ring.Owner(model) }

// IsPrimary reports whether this node is model's shard primary.
func (r *Replicator) IsPrimary(model string) bool { return r.ring.Owner(model) == r.cfg.NodeID }

// PeerURL returns a peer's base URL.
func (r *Replicator) PeerURL(node string) (string, bool) {
	u, ok := r.cfg.Peers[node]
	return u, ok
}

// Stamp assigns rec a fresh HLC stamp under this node's identity. Call
// it exactly once, on the node that first ingests the submission.
func (r *Replicator) Stamp(rec *store.Record) {
	rec.SetStamp(r.cfg.NodeID, r.cfg.Clock.Now())
}

// replicaTargets returns the peers (self excluded) in model's replica
// set.
func (r *Replicator) replicaTargets(model string) []*shipper {
	set := r.ring.ReplicaSet(model, r.cfg.Replicas)
	out := make([]*shipper, 0, len(set))
	for _, node := range set {
		if sh, ok := r.shippers[node]; ok {
			out = append(out, sh)
		}
	}
	return out
}

// ShipWaitBatch enqueues a whole committed batch to its replica sets
// and blocks until every record has at least one replica
// acknowledgement or the single shared ack timeout runs out (ErrNoAck).
// Each target peer receives its share of the batch as one enqueue, so
// its shipper wakes to the whole share and POSTs it in one replication
// batch (up to batchMax records): a 256-record stream batch costs one
// round trip and one replica group commit per peer. Records whose
// replica set is empty (single-node cluster) are durable locally and
// need no ack.
func (r *Replicator) ShipWaitBatch(recs []store.Record) error {
	start := time.Now()
	acks := make([]chan struct{}, len(recs))
	var shares map[*shipper][]shipItem
	for i := range recs {
		targets := r.replicaTargets(recs[i].Model)
		if len(targets) == 0 {
			continue
		}
		if shares == nil {
			shares = make(map[*shipper][]shipItem, len(r.shippers))
		}
		ack := make(chan struct{}, len(targets))
		for _, sh := range targets {
			shares[sh] = append(shares[sh], shipItem{rec: recs[i], ack: ack, enq: start})
		}
		acks[i] = ack
	}
	if shares == nil {
		return nil
	}
	for sh, items := range shares {
		sh.enqueue(items)
	}
	timer := time.NewTimer(r.cfg.AckTimeout)
	defer timer.Stop()
	for _, ack := range acks {
		if ack == nil {
			continue
		}
		select {
		case <-ack:
		case <-timer.C:
			r.met.AckTimeouts.Inc()
			return ErrNoAck
		case <-r.stop:
			return ErrNoAck
		}
	}
	r.met.AckWait.Observe(time.Since(start).Seconds())
	return nil
}

// ApplyRemote merges a peer's records into this node as one durable
// commit. It checks every record first, as DecodeBatch does, so one bad
// record anywhere refuses the whole batch with nothing reserved or
// logged. It then folds each stamp into the local clock, claims each
// record exactly once (Reserve), and commits the new ones through one
// Apply call — one WAL group append — with fresh local sequence
// numbers. If Apply fails, every key it reserved is released and
// nothing counts as applied. Safe to call with records this node
// already holds: replays and reconcile races collapse into dups.
//
// The whole batch runs under applyGate, commit included: a concurrent
// apply that answers "dup" for a record must mean the first apply has
// already made it durable, because a shipper takes that answer as a
// replica acknowledgement.
func (r *Replicator) ApplyRemote(recs []store.Record) (ApplyResult, error) {
	if err := checkRecords(recs); err != nil {
		return ApplyResult{}, err
	}
	r.applyGate.Lock()
	defer r.applyGate.Unlock()
	var res ApplyResult
	fresh := make([]store.Record, 0, len(recs))
	for _, rec := range recs {
		r.cfg.Clock.Update(rec.Stamp())
		key, _ := rec.Key()
		if !r.cfg.Store.Reserve(rec.Model, key) {
			res.Dups++
			r.met.ApplyDups.Inc()
			continue
		}
		rec.Seq = 0
		fresh = append(fresh, rec)
	}
	if len(fresh) == 0 {
		return res, nil
	}
	ptrs := make([]*store.Record, len(fresh))
	for i := range fresh {
		ptrs[i] = &fresh[i]
	}
	if err := r.cfg.Apply(ptrs); err != nil {
		for _, rec := range fresh {
			key, _ := rec.Key()
			r.cfg.Store.Release(rec.Model, key)
		}
		return res, err
	}
	res.Applied = len(fresh)
	r.met.Applied.Add(uint64(len(fresh)))
	return res, nil
}

// ReconcileNow runs one full anti-entropy round against every peer and
// returns the first error (the round still visits all peers).
func (r *Replicator) ReconcileNow() error {
	r.met.ReconcileRounds.Inc()
	var firstErr error
	for id, base := range r.cfg.Peers {
		if err := r.reconcilePeer(id, base); err != nil {
			r.met.ReconcileErrors.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("peer %s: %w", id, err)
			}
		}
	}
	return firstErr
}

func (r *Replicator) reconcileLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ReconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			_ = r.ReconcileNow() // peer-down errors are counted, not fatal
		}
	}
}

// reconcilePeer compares digests with one peer and pulls every model
// that diverged. Pull-only repair: this node fetches what it might be
// missing, the peer's own loop fetches the reverse direction, and both
// sides converge without any push coordination.
func (r *Replicator) reconcilePeer(id, base string) error {
	var remote map[string]store.ModelDigest
	if err := r.get(base+"/v1/digest", func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&remote)
	}); err != nil {
		return err
	}
	local := r.cfg.Store.DigestAll()
	for model, rd := range remote {
		if rd.Records == 0 {
			continue
		}
		ld, ok := local[model]
		if ok && ld.Digest == rd.Digest && ld.Records == rd.Records {
			continue
		}
		pulled, err := r.pullModel(base, model)
		if err != nil {
			return err
		}
		if pulled == 0 {
			continue // divergence was local surplus; the peer pulls from us
		}
		r.met.ReconcileRepairs.Inc()
		r.met.ReconcilePulled.Add(uint64(pulled))
		if pulled >= r.cfg.SnapshotGap {
			r.met.SnapshotCatchups.Inc()
		}
	}
	return nil
}

// pullModel fetches a peer's full state for one model — snapshot
// shipping — and merges it, returning how many records were new here.
// The dump crosses the same trust boundary as a shipped batch, so it is
// decoded with DecodeBatch.
func (r *Replicator) pullModel(base, model string) (int, error) {
	var batch Batch
	if err := r.get(base+"/v1/replicate?model="+url.QueryEscape(model), func(body io.Reader) error {
		var err error
		batch, err = DecodeBatch(body)
		return err
	}); err != nil {
		return 0, err
	}
	res, err := r.ApplyRemote(batch.Records)
	return res.Applied, err
}

// get issues a GET to a peer and hands a 200 response's body to decode.
func (r *Replicator) get(u string, decode func(io.Reader) error) error {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return decode(resp.Body)
}

// shipItem is one queued record plus the ack channel it shares with its
// other replica targets.
type shipItem struct {
	rec store.Record
	ack chan<- struct{}
	enq time.Time
}

// shipper owns one peer's outbound replication stream: a bounded
// buffer drained in batches, with capped retries and lag gauges.
type shipper struct {
	r      *Replicator
	peerID string
	base   string

	mu     sync.Mutex
	buf    []shipItem
	notify chan struct{}

	pending *obs.Gauge
	lagMS   *obs.Gauge
}

func newShipper(r *Replicator, peerID, base string) *shipper {
	return &shipper{
		r:       r,
		peerID:  peerID,
		base:    base,
		notify:  make(chan struct{}, 1),
		pending: r.met.PeerPending.With(peerID),
		lagMS:   r.met.PeerLagMS.With(peerID),
	}
}

// enqueue appends one batch's share for this peer under a single lock
// and sends a single notify, so the loop never wakes between the
// share's records and splits it across two POSTs.
func (s *shipper) enqueue(items []shipItem) {
	s.mu.Lock()
	if room := maxQueue - len(s.buf); len(items) > room {
		// A peer this far behind is anti-entropy's problem, not the
		// ingest path's: drop the newest records and count them.
		s.r.met.ShipDropped.Add(uint64(len(items) - room))
		items = items[:room]
	}
	s.buf = append(s.buf, items...)
	s.pending.Set(int64(len(s.buf)))
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// take removes up to batchMax queued items.
func (s *shipper) take() []shipItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.buf)
	if n == 0 {
		s.lagMS.Set(0)
		s.pending.Set(0)
		return nil
	}
	if n > batchMax {
		n = batchMax
	}
	batch := make([]shipItem, n)
	copy(batch, s.buf)
	s.buf = append(s.buf[:0], s.buf[n:]...)
	s.pending.Set(int64(len(s.buf)))
	s.lagMS.Set(time.Since(batch[0].enq).Milliseconds())
	return batch
}

func (s *shipper) loop() {
	defer s.r.wg.Done()
	t := time.NewTicker(s.r.cfg.ShipInterval)
	defer t.Stop()
	for {
		select {
		case <-s.r.stop:
			return
		case <-s.notify:
		case <-t.C:
		}
		for {
			batch := s.take()
			if len(batch) == 0 {
				break
			}
			s.ship(batch)
		}
	}
}

// ship POSTs one batch, retrying a few times; exhausted retries abandon
// the records to anti-entropy.
func (s *shipper) ship(batch []shipItem) {
	recs := make([]store.Record, len(batch))
	for i, it := range batch {
		recs[i] = it.rec
	}
	body, err := json.Marshal(Batch{From: s.r.cfg.NodeID, Records: recs})
	if err != nil {
		s.r.met.ShipErrors.Inc()
		return
	}
	for attempt := 0; ; attempt++ {
		err = s.post(body)
		if err == nil {
			s.r.met.ShipBatches.Inc()
			s.r.met.ShipRecords.Add(uint64(len(batch)))
			for _, it := range batch {
				if it.ack != nil {
					select {
					case it.ack <- struct{}{}:
					default: // waiter already satisfied or gone
					}
				}
			}
			return
		}
		s.r.met.ShipErrors.Inc()
		if attempt >= shipRetries {
			s.r.met.ShipDropped.Add(uint64(len(batch)))
			s.lagMS.Set(time.Since(batch[0].enq).Milliseconds())
			return
		}
		backoff := time.Duration(50<<attempt) * time.Millisecond
		select {
		case <-s.r.stop:
			return
		case <-time.After(backoff):
		}
	}
}

func (s *shipper) post(body []byte) error {
	resp, err := s.r.client.Post(s.base+"/v1/replicate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s/v1/replicate: %s", s.base, resp.Status)
	}
	return nil
}
