package dserve

// Distributed-tier metric catalogues. Router counters live in the
// router's own serve.Metrics catalogue (rendered at the router's
// /metrics); worker counters are registered into the wrapped
// serve.Server's catalogue, so one scrape of a worker's /metrics covers
// both its serving and its distributed-tier behavior. All names are
// documented in METRICS.md ("Distributed serving metrics") and referenced
// by the OPERATIONS.md troubleshooting table; the lintdoc staleness
// linter enumerates them through RouterMetricNames and WorkerMetricNames.

// routerCounters, in the order the router's /metrics renders them.
var routerCounters = []string{
	"router_proxy_errors",      // upstream attempts failed (transport error or 5xx)
	"router_retries",           // attempts re-sent to the next replica after a failure
	"router_no_replica",        // requests answered 503: no healthy replica for the graph
	"router_exhausted",         // requests answered 502: every attempted replica failed
	"router_mutate_partial",    // write fan-outs applied on only a subset of replicas
	"router_registrations",     // worker registrations and heartbeats accepted
	"router_probe_failures",    // health probes failed
	"router_worker_ejected",    // workers ejected after FailAfter consecutive failures
	"router_worker_readmitted", // ejected workers readmitted by a passing probe or heartbeat

	// Anti-entropy loop (see antientropy.go).
	"antientropy_checks",     // divergence checks run (graphs with ≥2 healthy replicas)
	"antientropy_divergence", // checks that found replicas disagreeing on (epoch, digest)
	"antientropy_repairs",    // laggard repairs that completed (wal suffix or snapshot)
	"antientropy_errors",     // digest fetches or repair requests that failed
}

// workerCounters are registered into the wrapped serve.Server's metrics.
var workerCounters = []string{
	"worker_register_errors",       // registration posts that failed
	"worker_snapshot_saves",        // snapshots persisted to the snapshot directory
	"worker_snapshot_save_errors",  // snapshot persists that failed
	"worker_snapshot_served",       // GET /internal/snapshot fetches answered to peers
	"worker_snapshot_restores",     // snapshots adopted (local file or the repair ladder's peer fetch)
	"worker_snapshot_stale",        // snapshots skipped as older than resident state
	"worker_snapshot_fetch_errors", // the repair ladder's peer snapshot fetches that failed

	// Durable mutation WAL (see wal.go).
	"wal_appends",            // mutation epochs durably appended (fsynced)
	"wal_append_errors",      // appends that failed (mutation still acknowledged; divergence risk)
	"wal_segments_rotated",   // segment rotations at walSegmentBytes
	"wal_segments_truncated", // segments retired as covered by a persisted snapshot
	"wal_replayed_batches",   // logged epochs re-applied at startup (Worker.Start)
	"wal_replay_errors",      // replay stops: gap, hole, or corrupt record
	"wal_tail_dropped",       // torn tail pieces dropped when opening the log

	// The repair ladder, worker side (worker.go repairFrom): run for the
	// router's anti-entropy loop and for the worker's own rejoin catch-up.
	"antientropy_digests_served",     // GET /internal/digest answers
	"antientropy_wal_served",         // GET /internal/wal suffixes shipped to peers
	"antientropy_wal_gone",           // suffix requests answered 410 (truncated or no wal)
	"antientropy_repairs_applied",    // repairs converged via wal suffix replay
	"antientropy_snapshot_fallbacks", // repairs that fell back to a full snapshot transfer
	"antientropy_repair_errors",      // repairs that failed outright
}

// RouterMetricNames lists every metric a Router can emit; the METRICS.md
// staleness linter checks the doc against it.
func RouterMetricNames() []string {
	return append([]string(nil), routerCounters...)
}

// WorkerMetricNames lists every metric a Worker adds to its serve.Server's
// catalogue.
func WorkerMetricNames() []string {
	return append([]string(nil), workerCounters...)
}
