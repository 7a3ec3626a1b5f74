package serve

import (
	"strings"
	"sync"

	"graphpulse/internal/sim/stats"
)

// Serving metrics, in the order /metrics renders them. All are documented
// in METRICS.md ("Serving metrics"); the lintdoc staleness linter
// enumerates them through MetricNames.
var serveCounters = []string{
	"query_requests",          // /v1/query requests admitted to parsing
	"query_cache_hits",        // answered from the versioned result cache
	"query_cache_misses",      // required a computation (led or joined)
	"query_coalesced",         // joined an identical in-flight computation
	"query_cold_solves",       // computations started from scratch
	"query_warm_starts",       // computations warm-started from a prior epoch
	"query_rejected",          // bounced by admission control (429)
	"query_deadline_exceeded", // request deadline expired (504)
	"query_errors",            // bad requests and compute failures
	"compute_canceled",        // computations canceled after all waiters left
	"mutate_requests",         // /v1/mutate requests
	"mutate_edges_added",      // edges inserted across all batches
	"mutate_dedup_skipped",    // in-batch duplicate insertions dropped
	"mutate_delete_edges",     // live edges removed by delete ops
	"mutate_delete_missed",    // delete ops that matched no live edge
	"mutate_errors",           // rejected mutation batches
	"stream_cone_starts",      // queries warm-started via deletion-cone reset
	"stream_replay_fallbacks", // cone exceeded MaxConeFraction; cold replay
}

// serveHistograms are the latency distributions, in microseconds.
var serveHistograms = []string{
	"query_latency_us",   // full request latency of /v1/query
	"mutate_latency_us",  // full request latency of /v1/mutate
	"compute_latency_us", // worker-pool computation time (cache misses only)
}

// latencyBucketsUS spans 100µs to 1s; slower requests land in overflow.
var latencyBucketsUS = []int64{
	100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
	50_000, 100_000, 250_000, 500_000, 1_000_000,
}

// Metrics is the server's observability surface: a stats.Set behind a
// mutex (the simulator's sets are single-threaded by construction; the
// serving layer is not). Every name is pre-registered so /metrics renders
// the complete catalogue in a fixed order from the first request on.
type Metrics struct {
	mu  sync.Mutex
	set *stats.Set
}

// NewMetrics returns a Metrics with every serving counter and histogram
// registered at zero.
func NewMetrics() *Metrics {
	return NewMetricsCatalog(serveCounters, serveHistograms)
}

// NewMetricsCatalog returns a Metrics pre-registered with an arbitrary
// catalogue instead of the serving one — the distributed tier's router
// (internal/dserve) reuses the serving metrics machinery with its own
// `router_*` names this way.
func NewMetricsCatalog(counters, histograms []string) *Metrics {
	m := &Metrics{set: stats.NewSet()}
	m.register(counters, histograms)
	return m
}

// Register extends the catalogue with additional counter and histogram
// names, pre-registered at zero so /metrics renders them from the first
// request on. A distributed-tier worker (internal/dserve) adds its
// `worker_*` names to the serve.Server's catalogue through this.
func (m *Metrics) Register(counters, histograms []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.register(counters, histograms)
}

func (m *Metrics) register(counters, histograms []string) {
	for _, n := range counters {
		m.set.Add(n, 0)
	}
	for _, n := range histograms {
		m.set.Histogram(n, latencyBucketsUS)
	}
}

// Add increments a counter.
func (m *Metrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.set.Add(name, delta)
	m.mu.Unlock()
}

// Observe records one histogram observation.
func (m *Metrics) Observe(name string, v int64) {
	m.mu.Lock()
	m.set.Histogram(name, latencyBucketsUS).Observe(v)
	m.mu.Unlock()
}

// Counter returns a counter's current value.
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.set.Counter(name)
}

// Render returns the /metrics text: every counter and histogram in
// registration order, in the repository's deterministic stats.Set.Report
// format. The exact output is pinned by a golden-file test.
func (m *Metrics) Render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	b.WriteString("# graphpulse serve metrics (see METRICS.md)\n")
	b.WriteString(m.set.Report())
	return b.String()
}

// MetricNames lists every metric name the serving layer can emit; the
// METRICS.md staleness linter checks the doc against it.
func MetricNames() []string {
	return NewMetrics().set.Names()
}
