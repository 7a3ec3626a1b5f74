package serve

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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

// Metrics is the server's observability surface: named counters and
// latency histograms behind one mutex. Every name is pre-registered so
// /metrics renders the complete catalogue in a fixed order from the first
// request on.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]int64
	histograms map[string]*histogram
	// order lists every counter and histogram name in first-registration
	// order; Render follows it, so map iteration never decides placement.
	order []string
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
	m := &Metrics{counters: make(map[string]int64), histograms: make(map[string]*histogram)}
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
		m.add(n, 0)
	}
	for _, n := range histograms {
		m.histogram(n)
	}
}

// add increments counter name, registering it on first use.
func (m *Metrics) add(name string, delta int64) {
	v, ok := m.counters[name]
	if !ok {
		m.order = append(m.order, name)
	}
	m.counters[name] = v + delta
}

// histogram returns the named histogram, registering it on first use.
func (m *Metrics) histogram(name string) *histogram {
	h, ok := m.histograms[name]
	if !ok {
		h = newHistogram(latencyBucketsUS)
		m.histograms[name] = h
		m.order = append(m.order, name)
	}
	return h
}

// Add increments a counter.
func (m *Metrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.add(name, delta)
	m.mu.Unlock()
}

// Observe records one histogram observation.
func (m *Metrics) Observe(name string, v int64) {
	m.mu.Lock()
	m.histogram(name).observe(v)
	m.mu.Unlock()
}

// Counter returns a counter's current value (0 if never written).
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Render returns the /metrics text: every counter and histogram in
// registration order, a histogram as a summary line followed by its
// buckets. The exact output is pinned by a golden-file test.
func (m *Metrics) Render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	b.WriteString("# graphpulse serve metrics (see METRICS.md)\n")
	for _, n := range m.order {
		if v, ok := m.counters[n]; ok {
			fmt.Fprintf(&b, "%-40s %d\n", n, v)
		}
		if h, ok := m.histograms[n]; ok {
			fmt.Fprintf(&b, "%-40s count=%d mean=%.2f max=%d\n", n, h.n, h.mean(), h.max)
			for i, c := range h.counts {
				label := "  >overflow"
				if i < len(h.bounds) {
					label = fmt.Sprintf("  ≤%d", h.bounds[i])
				}
				fmt.Fprintf(&b, "%-40s %d\n", label, c)
			}
		}
	}
	return b.String()
}

// MetricNames lists every metric name the serving layer can emit; the
// METRICS.md staleness linter checks the doc against it.
func MetricNames() []string {
	return NewMetrics().order
}

// histogram counts observations into fixed inclusive upper-bound buckets
// plus an overflow bucket, and tracks sum, count and max for the summary
// line.
type histogram struct {
	bounds []int64 // ascending inclusive upper bounds
	counts []int64 // len(bounds)+1; the last is overflow
	sum    int64
	n      int64
	max    int64
}

// newHistogram creates a histogram over the given upper bounds, in any
// order.
func newHistogram(bounds []int64) *histogram {
	b := slices.Clone(bounds)
	slices.Sort(b)
	return &histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

func (h *histogram) observe(v int64) {
	h.counts[sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })]++
	h.sum += v
	h.n++
	h.max = max(h.max, v)
}

// mean is the mean observation (0 if none).
func (h *histogram) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
