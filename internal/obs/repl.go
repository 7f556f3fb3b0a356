package obs

// ReplicationMetrics is the cluster subsystem's metric family, registered
// as one unit so internal/replication and internal/server share handles
// (and docs/METRICS.md stays the single naming reference). All series
// carry the registry prefix (crowdd_ in production).
type ReplicationMetrics struct {
	// ShipBatches counts replication batches POSTed to peers.
	ShipBatches *Counter
	// ShipRecords counts records shipped inside those batches.
	ShipRecords *Counter
	// ShipErrors counts batch POSTs that failed (retried, then left to
	// anti-entropy).
	ShipErrors *Counter
	// ShipDropped counts records dropped from a full ship queue — a
	// far-behind peer; anti-entropy repairs them.
	ShipDropped *Counter
	// Applied counts remote records committed locally via /v1/replicate
	// or a reconcile pull.
	Applied *Counter
	// ApplyDups counts remote records skipped as already held — a live
	// ship racing an anti-entropy pull, or a peer re-shipping.
	ApplyDups *Counter
	// Forwarded counts submissions proxied to their shard primary.
	Forwarded *Counter
	// IngestFallback counts submissions ingested locally because the
	// shard primary was unreachable.
	IngestFallback *Counter
	// ForwardBodyFails counts proxied submissions whose response relay
	// broke mid-body; the client was answered with a 307 to the primary
	// instead of a truncated relay.
	ForwardBodyFails *Counter
	// AckTimeouts counts locally committed submissions whose replica
	// acknowledgement never arrived inside the window (the client gets a
	// 503 and retries; the record stays durable locally).
	AckTimeouts *Counter
	// ReconcileRounds counts anti-entropy rounds started.
	ReconcileRounds *Counter
	// ReconcileRepairs counts model repairs (a digest mismatch that
	// pulled records).
	ReconcileRepairs *Counter
	// ReconcilePulled counts records merged in by reconcile pulls.
	ReconcilePulled *Counter
	// SnapshotCatchups counts repairs big enough to count as
	// snapshot-shipping catch-up rather than incremental repair.
	SnapshotCatchups *Counter
	// ReconcileErrors counts reconcile exchanges that failed (peer down).
	ReconcileErrors *Counter
	// PeerPending gauges each peer's ship-queue depth.
	PeerPending *GaugeVec
	// PeerLagMS gauges each peer's replication lag: how long the oldest
	// unacknowledged record has been waiting, in milliseconds (0 when
	// caught up).
	PeerLagMS *GaugeVec
	// AckWait is the distribution of how long a submission's commit
	// waited for its replica acknowledgement.
	AckWait *Histogram
}

// NewReplicationMetrics registers the replication series on the
// registry.
func NewReplicationMetrics(reg *Registry) *ReplicationMetrics {
	return &ReplicationMetrics{
		ShipBatches:      reg.Counter("repl_ship_batches_total", "replication batches POSTed to peers"),
		ShipRecords:      reg.Counter("repl_ship_records_total", "records shipped to peers"),
		ShipErrors:       reg.Counter("repl_ship_errors_total", "replication batch POSTs that failed"),
		ShipDropped:      reg.Counter("repl_ship_dropped_total", "records dropped from a full ship queue (anti-entropy repairs them)"),
		Applied:          reg.Counter("repl_applied_total", "remote records committed locally"),
		ApplyDups:        reg.Counter("repl_apply_dups_total", "remote records skipped as already held"),
		Forwarded:        reg.Counter("repl_forwarded_total", "submissions proxied to their shard primary"),
		IngestFallback:   reg.Counter("repl_ingest_fallback_total", "submissions ingested locally with the primary unreachable"),
		ForwardBodyFails: reg.Counter("repl_forward_body_failures_total", "proxied submissions whose response relay broke mid-body (answered with a 307 to the primary)"),
		AckTimeouts:      reg.Counter("repl_ack_timeouts_total", "commits whose replica acknowledgement timed out"),
		ReconcileRounds:  reg.Counter("reconcile_rounds_total", "anti-entropy rounds started"),
		ReconcileRepairs: reg.Counter("reconcile_repairs_total", "model repairs after a digest mismatch"),
		ReconcilePulled:  reg.Counter("reconcile_pulled_total", "records merged in by reconcile pulls"),
		SnapshotCatchups: reg.Counter("reconcile_snapshot_catchups_total", "repairs large enough to count as snapshot catch-up"),
		ReconcileErrors:  reg.Counter("reconcile_errors_total", "reconcile exchanges that failed"),
		PeerPending:      reg.GaugeVec("repl_peer_pending", "ship-queue depth per peer", "peer"),
		PeerLagMS:        reg.GaugeVec("repl_peer_lag_ms", "replication lag per peer: age of the oldest unacknowledged record, ms", "peer"),
		AckWait:          reg.Histogram("repl_ack_wait_seconds", "time a commit waited for its replica acknowledgement", DurationBuckets),
	}
}
