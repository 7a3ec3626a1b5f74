package dserve

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"graphpulse/internal/serve"
)

// workerEntry is the membership's live view of one worker.
type workerEntry struct {
	graphs   map[string]bool // nil = unregistered seed, assumed to host everything
	healthy  bool
	draining bool
	fails    int
	backoff  time.Duration
	nextDue  time.Time
	lastErr  string
}

func (w *workerEntry) hosts(graph string) bool {
	return w.graphs == nil || w.graphs[graph]
}

// live is the one routing predicate: a worker receives traffic, donates
// to peers and is compared by anti-entropy only while healthy and not
// draining.
func (w *workerEntry) live() bool { return w.healthy && !w.draining }

// membership owns the router's worker table: which workers host each
// graph (ranked by placementScore), each worker's health state machine
// (ejection, exponential re-probe backoff with seeded jitter, readmission)
// and the drain flag, all behind one lock. Every method that moves
// time-dependent state takes now, so the state machine runs on synthetic
// clocks in tests; the Router never touches the table directly.
type membership struct {
	cfg     RouterConfig // withDefaults applied
	metrics *serve.Metrics
	logf    func(format string, args ...any)

	mu      sync.Mutex
	workers map[string]*workerEntry
	rng     *rand.Rand // seeded: one draw per scheduled re-probe of an ejected worker
}

func newMembership(cfg RouterConfig, metrics *serve.Metrics, logf func(string, ...any)) *membership {
	return &membership{
		cfg:     cfg,
		metrics: metrics,
		logf:    logf,
		workers: make(map[string]*workerEntry),
		rng:     rand.New(rand.NewSource(int64(cfg.Seed))),
	}
}

// add inserts a worker (healthy, due for its first probe at once) or
// updates its graph set; nil graphs leaves the set alone. Callers hold
// m.mu or are in single-threaded construction.
func (m *membership) add(u string, graphs []string) *workerEntry {
	w, ok := m.workers[u]
	if !ok {
		w = &workerEntry{healthy: true}
		m.workers[u] = w
	}
	if graphs != nil {
		w.graphs = make(map[string]bool, len(graphs))
		for _, g := range graphs {
			w.graphs[g] = true
		}
	}
	return w
}

// jittered spreads a backoff by up to 25% of itself, drawn from the seeded
// RNG — ejected workers sharing one outage re-probe staggered instead of
// in lockstep, and the same Seed reproduces the same schedule. Callers
// hold m.mu.
func (m *membership) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d + time.Duration(m.rng.Int63n(int64(d)/4+1))
}

// fail records one failure against a worker — a health probe or a
// request-path attempt. The FailAfter-th consecutive failure ejects it
// onto the base backoff; each further failed probe doubles the backoff up
// to BackoffMax. Request-path failures never move the probe schedule
// unless they eject: traffic still draining off an ejected worker must not
// inflate its backoff.
func (m *membership) fail(u string, err error, probe bool, now time.Time) {
	if probe {
		m.metrics.Add("router_probe_failures", 1)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[u]
	if !ok {
		return
	}
	w.fails++
	w.lastErr = err.Error()
	switch {
	case w.healthy && w.fails >= m.cfg.FailAfter:
		w.healthy = false
		w.backoff = m.cfg.BackoffBase
		m.metrics.Add("router_worker_ejected", 1)
		m.logf("dserve: router: ejected worker %s after %d failures (%v)", u, w.fails, err)
	case !probe:
		return
	case w.healthy:
		w.nextDue = now.Add(m.cfg.ProbeInterval)
		return
	default:
		w.backoff = min(2*w.backoff, m.cfg.BackoffMax)
	}
	w.nextDue = now.Add(m.jittered(w.backoff))
}

// admit is the success transition: clear the failure state, readmit if
// ejected, and schedule the next regular probe. Callers hold m.mu.
func (m *membership) admit(u string, w *workerEntry, now time.Time) {
	if !w.healthy {
		m.metrics.Add("router_worker_readmitted", 1)
		m.logf("dserve: router: readmitted worker %s", u)
	}
	w.healthy = true
	w.fails = 0
	w.backoff = 0
	w.lastErr = ""
	w.nextDue = now.Add(m.cfg.ProbeInterval)
}

// ok records a passing probe or a successful write against a worker.
func (m *membership) ok(u string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, found := m.workers[u]; found {
		m.admit(u, w, now)
	}
}

// register admits a worker announcing itself (or heartbeating) with its
// hosted graphs, lifts any drain, and returns per graph the other live
// workers hosting it in placement order — the rejoiner's catch-up donors,
// the graph's other replicas first.
func (m *membership) register(u string, graphs []string, now time.Time) map[string][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.add(u, graphs)
	m.admit(u, w, now)
	w.draining = false
	peers := make(map[string][]string, len(graphs))
	for _, g := range graphs {
		peers[g] = m.peers(g, u)
	}
	return peers
}

// drain cordons (or readmits) a worker; false means it is unknown.
func (m *membership) drain(u string, draining bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[u]
	if ok {
		w.draining = draining
	}
	return ok
}

// placementScore is worker's rendezvous (highest-random-weight) score
// for graph: FNV-1a over the worker URL, a zero separator byte and the
// graph name, then murmur3's fmix64 finalizer, without which FNV-1a's
// high bits spread graphs unevenly. It takes no seed, so every router,
// and one router across restarts, ranks the workers of a graph alike.
func placementScore(worker, graph string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(worker); i++ {
		h = (h ^ uint64(worker[i])) * prime
	}
	h *= prime // the separator: h ^ 0 is h
	for i := 0; i < len(graph); i++ {
		h = (h ^ uint64(graph[i])) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// placement lists the workers that host graph, highest placementScore
// first and ties by URL: the one order that routing, write fan-out, the
// anti-entropy donor tie-break and registration acks read. A worker
// joining or leaving moves only the graphs it ranks into or out of.
// Callers hold m.mu.
func (m *membership) placement(graph string) []string {
	type ranked struct {
		score uint64
		url   string
	}
	rs := make([]ranked, 0, len(m.workers))
	for u, w := range m.workers {
		if w.hosts(graph) {
			rs = append(rs, ranked{placementScore(u, graph), u})
		}
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return strings.Compare(a.url, b.url)
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.url
	}
	return out
}

// peers lists, in placement order, the live workers other than except
// that host graph. Callers hold m.mu.
func (m *membership) peers(graph, except string) []string {
	var out []string
	for _, u := range m.placement(graph) {
		if u != except && m.workers[u].live() {
			out = append(out, u)
		}
	}
	return out
}

// live lists every live worker, sorted by URL.
func (m *membership) live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for u, w := range m.workers {
		if w.live() {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// replicas returns the graph's replica set, the first Replication
// workers of its placement (stable under health changes), and the live
// subset of it in the same order.
func (m *membership) replicas(graph string) (all, live []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	all = m.placement(graph)
	all = all[:min(len(all), m.cfg.Replication)]
	live = make([]string, 0, len(all))
	for _, u := range all {
		if m.workers[u].live() {
			live = append(live, u)
		}
	}
	return all, live
}

// due lists the workers whose next probe is not after now.
func (m *membership) due(now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var due []string
	for u, w := range m.workers {
		if !w.nextDue.After(now) {
			due = append(due, u)
		}
	}
	return due
}

// hostedGraphs is the sorted union of every registered worker's graph
// set. Seed workers that never registered are skipped — the router cannot
// enumerate their graphs until their first registration.
func (m *membership) hostedGraphs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	set := map[string]bool{}
	for _, w := range m.workers {
		for g := range w.graphs {
			set[g] = true
		}
	}
	return sortedKeys(set)
}

// snapshot reports the current view of the fleet, sorted by URL.
func (m *membership) snapshot() []WorkerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerInfo, 0, len(m.workers))
	for u, w := range m.workers {
		info := WorkerInfo{
			URL: u, Healthy: w.healthy, Draining: w.draining,
			Fails: w.fails, LastErr: w.lastErr,
		}
		if w.graphs != nil {
			info.Graphs = sortedKeys(w.graphs)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
