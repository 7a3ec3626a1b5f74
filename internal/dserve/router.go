package dserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphpulse/internal/serve"
)

// Body caps for proxied requests mirror the worker caps.
const (
	maxRouterQueryBody  = 1 << 20  // 1 MiB
	maxRouterMutateBody = 64 << 20 // 64 MiB
	maxProxyRespBody    = 64 << 20
)

// RouterConfig describes a Router. The zero value of every field except
// Workers is replaced by the documented default.
type RouterConfig struct {
	// Workers seeds the worker table with advertised base URLs (e.g.
	// "http://127.0.0.1:8081"). Workers may also join dynamically via
	// POST /internal/register; a seed worker is assumed to host every
	// graph until its first registration says otherwise.
	Workers []string
	// Replication is how many workers own each graph (default 1). Values
	// below 1 mean 1; values at or above the worker count replicate to
	// every worker (full read fan-out — the hot-graph configuration).
	Replication int
	// ProbeInterval is the health-probe period for healthy workers
	// (default 1s). Ejected workers are probed on their backoff schedule.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive failures (probes or request-path
	// attempts) eject a worker (default 2).
	FailAfter int
	// RetryBudget is how many additional replicas a read is retried on
	// after a failed attempt (default 2). Negative disables retries.
	RetryBudget int
	// BackoffBase and BackoffMax bound the ejected-worker re-probe
	// backoff: base, 2×base, 4×base, … capped at max (defaults 500ms, 15s).
	// Each scheduled re-probe adds up to 25% seeded jitter so a fleet
	// ejected by one shared outage does not re-probe in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed keys the router's deterministic RNG (probe-backoff jitter);
	// the default 1 keeps tests reproducible.
	Seed uint64
	// AntiEntropyInterval is the period of the divergence check: every
	// interval the router compares (epoch, state digest) across each
	// graph's healthy replicas and asks laggards to repair from the most
	// advanced peer (default 5s). Negative disables the loop.
	AntiEntropyInterval time.Duration
	// Client overrides the HTTP client for all outbound traffic: proxied
	// requests, write fan-outs, health probes and anti-entropy (default:
	// 30s timeout).
	Client *http.Client
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Replication < 1 {
		c.Replication = 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	} else if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 15 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.AntiEntropyInterval == 0 {
		c.AntiEntropyInterval = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Router is the stateless front of the distributed serving tier: it owns
// no graph state, only the (rebuildable) worker table, and proxies the
// /v1/* API onto rendezvous-hashed replica sets with health-checked
// failover. Create with NewRouter, expose with Handler or Start, stop
// with Shutdown.
type Router struct {
	cfg     RouterConfig
	metrics *serve.Metrics
	members *membership

	mu       sync.Mutex             // guards graphMus
	graphMus map[string]*sync.Mutex // per-graph write-fan-out serialization

	rr atomic.Uint64 // read-rotation cursor
	// ctx is the router's lifetime: the background loops and every peer
	// call they make (probe, digest, repair) end when Shutdown cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	srvMu   sync.Mutex
	httpSrv *http.Server
}

// NewRouter builds a Router, seeds its worker table, and starts the
// health prober.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:      cfg,
		metrics:  serve.NewMetricsCatalog(routerCounters, nil),
		graphMus: make(map[string]*sync.Mutex),
	}
	rt.members = newMembership(cfg, rt.metrics, rt.logf)
	for _, raw := range cfg.Workers {
		u, err := normalizeWorkerURL(raw)
		if err != nil {
			return nil, fmt.Errorf("dserve: bad worker %q: %w", raw, err)
		}
		rt.members.add(u, nil)
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	rt.wg.Add(1)
	go rt.probeLoop()
	if cfg.AntiEntropyInterval > 0 {
		rt.wg.Add(1)
		go rt.antiEntropyLoop()
	}
	return rt, nil
}

// normalizeWorkerURL canonicalizes an advertised worker URL: scheme
// defaults to http, trailing slashes are dropped, and a host must be
// present.
func normalizeWorkerURL(raw string) (string, error) {
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", err
	}
	if u.Host == "" {
		return "", fmt.Errorf("missing host")
	}
	return strings.TrimRight(u.Scheme+"://"+u.Host+u.Path, "/"), nil
}

// Metrics returns the router's live metrics.
func (rt *Router) Metrics() *serve.Metrics { return rt.metrics }

// Workers reports the router's current view of the fleet, sorted by URL.
func (rt *Router) Workers() []WorkerInfo { return rt.members.snapshot() }

// probeLoop drives the health prober: healthy workers on ProbeInterval,
// ejected ones on their exponential backoff.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	tick := time.NewTicker(max(1, min(rt.cfg.ProbeInterval/2, 250*time.Millisecond))) // a ticker period must be positive
	defer tick.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-tick.C:
		}
		for _, u := range rt.members.due(time.Now()) {
			rt.probeOne(u)
		}
	}
}

// probeOne health-checks one worker and updates its state.
func (rt *Router) probeOne(u string) {
	ctx, cancel := context.WithTimeout(rt.ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	if err := callJSON(ctx, rt.cfg.Client, http.MethodGet, u+"/healthz", nil, nil, 4096); err != nil {
		rt.members.fail(u, err, true, time.Now())
		return
	}
	rt.members.ok(u, time.Now())
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// Handler returns the router's HTTP routing table: the worker-compatible
// /v1/* surface plus the control-plane /internal/* endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", rt.handleQuery)
	mux.HandleFunc("POST /v1/mutate", rt.handleMutate)
	mux.HandleFunc("GET /v1/graphs", rt.handleGraphs)
	mux.HandleFunc("POST /internal/register", rt.handleRegister)
	mux.HandleFunc("GET /internal/workers", rt.handleWorkers)
	mux.HandleFunc("POST /internal/drain", rt.handleDrain)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rt.metrics.Render())
	})
	return mux
}

// Start opens a listener on addr ("" or host:0 pick a free port), serves
// Handler on it in the background, and returns the bound address.
func (rt *Router) Start(addr string) (net.Addr, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	rt.srvMu.Lock()
	rt.httpSrv = srv
	rt.srvMu.Unlock()
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			rt.logf("dserve: router http server: %v", err)
		}
	}()
	rt.logf("dserve: router listening on %s", ln.Addr())
	return ln.Addr(), nil
}

// Shutdown stops the listener (draining in-flight requests, bounded by
// ctx), then cancels the background loops and whatever peer call they
// are parked in, and waits for them to exit.
func (rt *Router) Shutdown(ctx context.Context) error {
	var err error
	rt.srvMu.Lock()
	srv := rt.httpSrv
	rt.srvMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	rt.cancel()
	rt.wg.Wait()
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(buf, '\n'))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, serve.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request, cap int64) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, cap))
}

// graphOf extracts the routing key from a /v1/query or /v1/mutate body.
func graphOf(body []byte) (string, error) {
	var probe struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return "", err
	}
	if probe.Graph == "" {
		return "", fmt.Errorf("missing graph")
	}
	return probe.Graph, nil
}

// attempt is one upstream proxy attempt's outcome.
type attempt struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// retryable reports whether the outcome should be retried on the next
// replica: transport failures and 5xx responses, except 504 — the
// worker's own deadline verdict, which a retry would only double-spend.
func (a attempt) retryable() bool {
	if a.err != nil {
		return true
	}
	return a.status >= 500 && a.status != http.StatusGatewayTimeout &&
		a.status != http.StatusNotImplemented
}

// forward posts a JSON body to one worker and slurps the response.
func (rt *Router) forward(workerURL, path string, body []byte) attempt {
	resp, err := rt.cfg.Client.Post(workerURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return attempt{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyRespBody))
	if err != nil {
		return attempt{err: err}
	}
	return attempt{status: resp.StatusCode, header: resp.Header, body: data}
}

// relay copies an upstream response to the client.
func relay(w http.ResponseWriter, a attempt) {
	if ct := a.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := a.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(a.status)
	w.Write(a.body)
}

// handleQuery proxies a read: rotate across the graph's healthy replicas,
// retrying a failed attempt on the next replica within the retry budget.
// The client sees exactly one answer — retries are absorbed here.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxRouterQueryBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read query body: %v", err)
		return
	}
	graph, err := graphOf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad query body: %v", err)
		return
	}
	_, healthy := rt.members.replicas(graph)
	if len(healthy) == 0 {
		rt.metrics.Add("router_no_replica", 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no healthy replica for graph %q", graph)
		return
	}
	attempts := rt.cfg.RetryBudget + 1
	if attempts > len(healthy) {
		attempts = len(healthy)
	}
	offset := int(rt.rr.Add(1))
	var last attempt
	for i := 0; i < attempts; i++ {
		target := healthy[(offset+i)%len(healthy)]
		if i > 0 {
			rt.metrics.Add("router_retries", 1)
		}
		last = rt.forward(target, "/v1/query", body)
		if !last.retryable() {
			relay(w, last)
			return
		}
		rt.metrics.Add("router_proxy_errors", 1)
		rt.members.fail(target, attemptError(last), false, time.Now())
	}
	rt.metrics.Add("router_exhausted", 1)
	writeError(w, http.StatusBadGateway, "all %d attempted replicas failed for graph %q: %s",
		attempts, graph, attemptError(last))
}

func attemptError(a attempt) error {
	if a.err != nil {
		return a.err
	}
	return fmt.Errorf("upstream status %d", a.status)
}

// graphMu returns the per-graph write-serialization lock.
func (rt *Router) graphMu(graph string) *sync.Mutex {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, ok := rt.graphMus[graph]
	if !ok {
		m = &sync.Mutex{}
		rt.graphMus[graph] = m
	}
	return m
}

// fanoutWrite applies one /v1/mutate body to every replica of the graph
// at once, under the graph's write lock, so concurrent writes to one
// graph still reach every replica in the same epoch order. The first
// success in placement order is relayed and any replica that missed the write
// counts one router_mutate_partial; with no success, a deterministic
// rejection (4xx — bad batch, unknown graph, read-only graph) is relayed
// as-is, and transport/5xx failures everywhere answer 502. Replicas that
// missed an applied write heal via the anti-entropy loop's WAL-suffix or
// snapshot repair.
func (rt *Router) fanoutWrite(w http.ResponseWriter, graph string, body []byte) {
	all, _ := rt.members.replicas(graph)
	if len(all) == 0 {
		rt.metrics.Add("router_no_replica", 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no replica for graph %q", graph)
		return
	}
	mu := rt.graphMu(graph)
	mu.Lock()
	defer mu.Unlock()

	results := make([]attempt, len(all))
	var wg sync.WaitGroup
	for i, target := range all {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			results[i] = rt.forward(target, "/v1/mutate", body)
		}(i, target)
	}
	wg.Wait()

	var firstOK, firstReject *attempt
	okCount := 0
	var lastFail attempt
	for i := range results {
		a := results[i]
		switch {
		case a.err == nil && a.status < 400:
			okCount++
			if firstOK == nil {
				firstOK = &results[i]
			}
			rt.members.ok(all[i], time.Now())
		case a.err == nil && a.status < 500:
			if firstReject == nil {
				firstReject = &results[i]
			}
		default:
			lastFail = a
			rt.metrics.Add("router_proxy_errors", 1)
			rt.members.fail(all[i], attemptError(a), false, time.Now())
		}
	}
	switch {
	case firstOK != nil:
		if okCount < len(all) {
			rt.metrics.Add("router_mutate_partial", 1)
		}
		relay(w, *firstOK)
	case firstReject != nil:
		relay(w, *firstReject)
	default:
		rt.metrics.Add("router_exhausted", 1)
		writeError(w, http.StatusBadGateway, "write failed on all %d replicas of graph %q: %s",
			len(all), graph, attemptError(lastFail))
	}
}

func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxRouterMutateBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read mutate body: %v", err)
		return
	}
	graph, err := graphOf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad mutate body: %v", err)
		return
	}
	rt.fanoutWrite(w, graph, body)
}

// handleGraphs merges the inventories of every healthy worker: one row
// per graph name, keeping the highest epoch seen (replicas briefly
// diverge while a mutation fans out).
func (rt *Router) handleGraphs(w http.ResponseWriter, r *http.Request) {
	merged := make(map[string]serve.GraphInfo)
	for _, u := range rt.members.live() {
		var infos []serve.GraphInfo
		if err := callJSON(rt.ctx, rt.cfg.Client, http.MethodGet, u+"/v1/graphs", nil, &infos, maxProxyRespBody); err != nil {
			rt.metrics.Add("router_proxy_errors", 1)
			rt.members.fail(u, err, false, time.Now())
			continue
		}
		for _, in := range infos {
			if cur, ok := merged[in.Name]; !ok || in.Epoch > cur.Epoch {
				merged[in.Name] = in
			}
		}
	}
	out := make([]serve.GraphInfo, 0, len(merged))
	for _, n := range sortedKeys(merged) {
		out = append(out, merged[n])
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRegister admits a worker announcing itself (or heartbeating). The
// response lists, per registered graph, the other live workers hosting
// it — the rejoiner's catch-up donors.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	u, err := normalizeWorkerURL(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad worker url %q: %v", req.URL, err)
		return
	}
	if len(req.Graphs) == 0 {
		writeError(w, http.StatusBadRequest, "registration must list hosted graphs")
		return
	}
	rt.metrics.Add("router_registrations", 1)
	resp := RegisterResponse{Peers: rt.members.register(u, req.Graphs, time.Now())}
	rt.logf("dserve: router: registered worker %s (graphs %v)", u, req.Graphs)
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Workers())
}

// handleDrain cordons (or readmits) a worker: a draining worker keeps its
// registration but receives no new traffic, so it can be SIGTERMed once
// its in-flight requests finish — the runbook's safe-restart path.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad drain body: %v", err)
		return
	}
	u, err := normalizeWorkerURL(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad worker url %q: %v", req.URL, err)
		return
	}
	if !rt.members.drain(u, !req.Undrain) {
		writeError(w, http.StatusNotFound, "unknown worker %q", u)
		return
	}
	rt.logf("dserve: router: worker %s draining=%v", u, !req.Undrain)
	writeJSON(w, http.StatusOK, rt.Workers())
}
