package dserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/serve"
)

// testGraphVertices is the vertex count of testGraph.
const testGraphVertices = 200

// testGraph builds the suite's deterministic test graph, fresh per call
// because every server mutates its own copy.
func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := gen.ErdosRenyi(testGraphVertices, 900, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newServeNode boots one real single-process server over the suite's
// deterministic test graph and exposes it via httptest.
func newServeNode(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{
		Graphs:         []serve.GraphSpec{{Name: "g", Graph: testGraph(t)}},
		DefaultTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func newTestRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func queryVia(t *testing.T, baseURL string) (*serve.QueryResponse, int) {
	t.Helper()
	code, body := postJSON(t, baseURL+"/v1/query", serve.QueryRequest{
		Graph: "g", Algorithm: "pr", Top: 1,
	})
	if code != http.StatusOK {
		return nil, code
	}
	var out serve.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("query response: %v (%s)", err, body)
	}
	return &out, code
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterProxyAndWriteFanout drives the core data path: queries proxy
// to a replica; a mutation through the router lands on every replica
// (same epoch on both workers); /v1/graphs merges the fleet's inventory.
func TestRouterProxyAndWriteFanout(t *testing.T) {
	sA, tsA := newServeNode(t)
	sB, tsB := newServeNode(t)
	_, rts := newTestRouter(t, RouterConfig{
		Workers:     []string{tsA.URL, tsB.URL},
		Replication: 2,
	})

	resp, code := queryVia(t, rts.URL)
	if code != http.StatusOK || resp == nil {
		t.Fatalf("query via router: HTTP %d", code)
	}
	if resp.Graph != "g" {
		t.Fatalf("query answered for graph %q", resp.Graph)
	}

	code, body := postJSON(t, rts.URL+"/v1/mutate", serve.MutateRequest{
		Graph: "g", Edges: []serve.EdgeJSON{{Src: 0, Dst: 150, Weight: 0.7}},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate via router: HTTP %d: %s", code, body)
	}
	for i, s := range []*serve.Server{sA, sB} {
		epoch, err := s.GraphEpoch("g")
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 1 {
			t.Errorf("worker %d epoch = %d, want 1 (write did not fan out)", i, epoch)
		}
	}

	gresp, err := http.Get(rts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	var infos []serve.GraphInfo
	if err := json.NewDecoder(gresp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "g" || infos[0].Epoch != 1 {
		t.Fatalf("merged inventory = %+v, want one row for g at epoch 1", infos)
	}
}

// pathRecorder is a RoundTripper that counts requests per URL path, then
// forwards them over the default transport.
type pathRecorder struct {
	mu sync.Mutex
	n  map[string]int
}

func (p *pathRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	p.n[req.URL.Path]++
	p.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

func (p *pathRecorder) count(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[path]
}

// TestClientCarriesAllOutboundTraffic pins Client as the one transport
// seam: the router's health probes, proxied queries, write fan-outs and
// anti-entropy digest fetches, and the workers' registrations, all go
// through the client their config installs.
func TestClientCarriesAllOutboundTraffic(t *testing.T) {
	routerPaths := &pathRecorder{n: map[string]int{}}
	workerPaths := &pathRecorder{n: map[string]int{}}
	rt, rts := newTestRouter(t, RouterConfig{
		Replication:         2,
		ProbeInterval:       20 * time.Millisecond,
		AntiEntropyInterval: 20 * time.Millisecond,
		Client:              &http.Client{Transport: routerPaths, Timeout: 30 * time.Second},
	})
	for range 2 {
		startFleetWorker(t, rts.URL, freeAddr(t), func(c *WorkerConfig) {
			c.Client = &http.Client{Transport: workerPaths, Timeout: 30 * time.Second}
		})
	}
	waitFor(t, "two registered workers", 5*time.Second, func() bool {
		n := 0
		for _, w := range rt.Workers() {
			if w.Healthy && len(w.Graphs) > 0 {
				n++
			}
		}
		return n == 2
	})

	if _, code := queryVia(t, rts.URL); code != http.StatusOK {
		t.Fatalf("query via router: HTTP %d", code)
	}
	code, body := postJSON(t, rts.URL+"/v1/mutate", serve.MutateRequest{
		Graph: "g", Edges: []serve.EdgeJSON{{Src: 0, Dst: 150, Weight: 0.7}},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate via router: HTTP %d: %s", code, body)
	}
	waitFor(t, "a health probe and an anti-entropy digest through the router's client", 5*time.Second, func() bool {
		return routerPaths.count("/healthz") > 0 && routerPaths.count("/internal/digest") > 0
	})
	if n := routerPaths.count("/v1/query"); n != 1 {
		t.Errorf("router client carried %d /v1/query requests, want 1", n)
	}
	if n := routerPaths.count("/v1/mutate"); n != 2 {
		t.Errorf("router client carried %d /v1/mutate requests, want 2 (one per replica)", n)
	}
	if n := workerPaths.count("/internal/register"); n < 2 {
		t.Errorf("worker clients carried %d /internal/register requests, want at least 2", n)
	}
}

// flakyWorker answers health probes but kills every /v1/query — the
// "worker dies mid-query" shape the failover path must absorb.
func flakyWorker(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("httptest response is not hijackable")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close() // mid-request connection drop
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterFailoverRetry pins the retry contract: with one replica
// dropping connections mid-query, every client query still gets exactly
// one 200 answer — the retries land on the live replica and are absorbed
// inside the router.
func TestRouterFailoverRetry(t *testing.T) {
	_, live := newServeNode(t)
	flaky := flakyWorker(t)
	rt, rts := newTestRouter(t, RouterConfig{
		Workers:     []string{live.URL, flaky.URL},
		Replication: 2,
		RetryBudget: 2,
		FailAfter:   100, // keep the flaky worker in rotation for the whole test
	})

	for i := 0; i < 8; i++ {
		resp, code := queryVia(t, rts.URL)
		if code != http.StatusOK || resp == nil {
			t.Fatalf("query %d: HTTP %d, want every query answered despite the flaky replica", i, code)
		}
	}
	if rt.Metrics().Counter("router_retries") == 0 {
		t.Error("no retries recorded; rotation never hit the flaky replica")
	}
	if rt.Metrics().Counter("router_proxy_errors") == 0 {
		t.Error("no proxy errors recorded")
	}
}

// TestRouterEjectionAndReadmission drives a worker through the health
// lifecycle: consecutive probe failures eject it, a passing probe after
// backoff readmits it.
func TestRouterEjectionAndReadmission(t *testing.T) {
	var failing atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	rt, _ := newTestRouter(t, RouterConfig{
		Workers:       []string{ts.URL},
		ProbeInterval: 25 * time.Millisecond,
		FailAfter:     2,
		BackoffBase:   20 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
	})

	healthy := func() bool {
		ws := rt.Workers()
		return len(ws) == 1 && ws[0].Healthy
	}
	waitFor(t, "initial healthy state", 2*time.Second, healthy)

	failing.Store(true)
	waitFor(t, "ejection", 5*time.Second, func() bool { return !healthy() })
	if rt.Metrics().Counter("router_worker_ejected") == 0 {
		t.Error("ejection not counted")
	}

	failing.Store(false)
	waitFor(t, "readmission", 5*time.Second, healthy)
	if rt.Metrics().Counter("router_worker_readmitted") == 0 {
		t.Error("readmission not counted")
	}
}

// TestRouterNoReplica pins the empty-fleet answer: 503 with Retry-After,
// not a hang or a 500.
func TestRouterNoReplica(t *testing.T) {
	rt, rts := newTestRouter(t, RouterConfig{})
	code, _ := postJSON(t, rts.URL+"/v1/query", serve.QueryRequest{Graph: "g", Algorithm: "pr"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet query: HTTP %d, want 503", code)
	}
	if rt.Metrics().Counter("router_no_replica") == 0 {
		t.Error("router_no_replica not counted")
	}
}

// TestRouterRegistrationAndDrain exercises the control plane: dynamic
// registration populates the fleet and returns peers, draining cordons a
// worker, undraining restores it.
func TestRouterRegistrationAndDrain(t *testing.T) {
	_, tsA := newServeNode(t)
	_, tsB := newServeNode(t)
	rt, rts := newTestRouter(t, RouterConfig{Replication: 2})

	code, body := postJSON(t, rts.URL+"/internal/register", RegisterRequest{URL: tsA.URL, Graphs: []string{"g"}})
	if code != http.StatusOK {
		t.Fatalf("register A: HTTP %d: %s", code, body)
	}
	var ack RegisterResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if len(ack.Peers["g"]) != 0 {
		t.Fatalf("first worker sees peers %v, want none", ack.Peers["g"])
	}

	code, body = postJSON(t, rts.URL+"/internal/register", RegisterRequest{URL: tsB.URL, Graphs: []string{"g"}})
	if code != http.StatusOK {
		t.Fatalf("register B: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if len(ack.Peers["g"]) != 1 || ack.Peers["g"][0] != tsA.URL {
		t.Fatalf("second worker peers = %v, want [%s]", ack.Peers["g"], tsA.URL)
	}
	if got := len(rt.Workers()); got != 2 {
		t.Fatalf("fleet size = %d, want 2", got)
	}

	// Bad registrations are rejected.
	if code, _ := postJSON(t, rts.URL+"/internal/register", RegisterRequest{URL: tsA.URL}); code != http.StatusBadRequest {
		t.Errorf("graphless registration: HTTP %d, want 400", code)
	}

	// Drain both workers: reads have nowhere to go.
	for _, u := range []string{tsA.URL, tsB.URL} {
		if code, body := postJSON(t, rts.URL+"/internal/drain", DrainRequest{URL: u}); code != http.StatusOK {
			t.Fatalf("drain %s: HTTP %d: %s", u, code, body)
		}
	}
	if _, code := queryVia(t, rts.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("query against fully drained fleet: HTTP %d, want 503", code)
	}

	// Undrain one: queries flow again.
	if code, body := postJSON(t, rts.URL+"/internal/drain", DrainRequest{URL: tsA.URL, Undrain: true}); code != http.StatusOK {
		t.Fatalf("undrain: HTTP %d: %s", code, body)
	}
	if resp, code := queryVia(t, rts.URL); code != http.StatusOK || resp == nil {
		t.Fatalf("query after undrain: HTTP %d, want 200", code)
	}

	// Draining an unknown worker is a 404.
	if code, _ := postJSON(t, rts.URL+"/internal/drain", DrainRequest{URL: "http://127.0.0.1:1"}); code != http.StatusNotFound {
		t.Errorf("drain of unknown worker: HTTP %d, want 404", code)
	}
}

// TestRouterFanoutPartial pins the parallel fan-out accounting: with one
// replica dead, a write still succeeds on the live one (the client sees
// 200) and the miss is counted as router_mutate_partial — the signal the
// anti-entropy loop later turns into a repair.
func TestRouterFanoutPartial(t *testing.T) {
	s, ts := newServeNode(t)
	rt, rts := newTestRouter(t, RouterConfig{
		Workers:     []string{ts.URL, "http://127.0.0.1:1"}, // second replica unreachable
		Replication: 2,
	})
	code, body := postJSON(t, rts.URL+"/v1/mutate", serve.MutateRequest{
		Graph: "g", Edges: []serve.EdgeJSON{{Src: 0, Dst: 150, Weight: 0.7}},
	})
	if code != http.StatusOK {
		t.Fatalf("partial mutate: HTTP %d: %s", code, body)
	}
	if epoch, err := s.GraphEpoch("g"); err != nil || epoch != 1 {
		t.Fatalf("live replica epoch = %d (%v), want 1", epoch, err)
	}
	if got := rt.Metrics().Counter("router_mutate_partial"); got != 1 {
		t.Fatalf("router_mutate_partial = %d, want 1", got)
	}
	if rt.Metrics().Counter("router_proxy_errors") == 0 {
		t.Error("dead replica's failure not counted")
	}

	// A deterministic rejection from every replica (unknown graph → 404)
	// is relayed as-is, not masked as a 502.
	code, _ = postJSON(t, rts.URL+"/v1/mutate", serve.MutateRequest{
		Graph: "nope", Edges: []serve.EdgeJSON{{Src: 0, Dst: 1}},
	})
	if code != http.StatusNotFound {
		t.Fatalf("all-reject fan-out: HTTP %d, want the workers' 404 relayed", code)
	}
}

// TestRouterFanoutConcurrent checks a wide fan-out actually reaches every
// replica: all five are written at once and each lands epoch 1.
func TestRouterFanoutConcurrent(t *testing.T) {
	servers := make([]*serve.Server, 5)
	urls := make([]string, 5)
	for i := range servers {
		s, ts := newServeNode(t)
		servers[i], urls[i] = s, ts.URL
	}
	rt, rts := newTestRouter(t, RouterConfig{
		Workers:     urls,
		Replication: 5,
	})
	code, body := postJSON(t, rts.URL+"/v1/mutate", serve.MutateRequest{
		Graph: "g", Edges: []serve.EdgeJSON{{Src: 1, Dst: 160, Weight: 0.2}},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", code, body)
	}
	for i, s := range servers {
		if epoch, err := s.GraphEpoch("g"); err != nil || epoch != 1 {
			t.Errorf("replica %d epoch = %d (%v), want 1", i, epoch, err)
		}
	}
	if got := rt.Metrics().Counter("router_mutate_partial"); got != 0 {
		t.Errorf("router_mutate_partial = %d on a full fan-out", got)
	}
}

// TestRouterJitterDeterminism pins the seeded backoff jitter: the same
// Seed draws the same schedule, and every draw stays in [d, 1.25d].
func TestRouterJitterDeterminism(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		m := newMembership(RouterConfig{Seed: seed}.withDefaults(), nil, nil)
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = m.jittered(time.Second)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < time.Second || a[i] > time.Second+time.Second/4 {
			t.Fatalf("draw %d = %v outside [1s, 1.25s]", i, a[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew the identical jitter schedule")
	}
}

// TestRouterRetryBudgetNone pins the negative RetryBudget (cmd/router
// -retry-budget 0): a failed read is answered 502 at once, never re-sent.
func TestRouterRetryBudgetNone(t *testing.T) {
	_, live := newServeNode(t)
	flaky := flakyWorker(t)
	rt, rts := newTestRouter(t, RouterConfig{
		Workers:     []string{live.URL, flaky.URL},
		Replication: 2,
		RetryBudget: -1,
		FailAfter:   100,
	})
	codes := map[int]int{}
	for i := 0; i < 4; i++ {
		_, code := queryVia(t, rts.URL)
		codes[code]++
	}
	if codes[http.StatusOK] != 2 || codes[http.StatusBadGateway] != 2 {
		t.Fatalf("answers by status = %v, want the rotation's 2 live hits and 2 unretried 502s", codes)
	}
	if got := rt.Metrics().Counter("router_retries"); got != 0 {
		t.Fatalf("router_retries = %d with retries off", got)
	}
}

// TestRouterGraphsUpstreamStatus: a worker answering /v1/graphs non-200 —
// even with a decodable body — is a failed peer call, not an inventory.
func TestRouterGraphsUpstreamStatus(t *testing.T) {
	_, live := newServeNode(t)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusInternalServerError, []serve.GraphInfo{{Name: "ghost", Epoch: 9}})
	})
	sick := httptest.NewServer(mux)
	t.Cleanup(sick.Close)
	rt, rts := newTestRouter(t, RouterConfig{Workers: []string{live.URL, sick.URL}, FailAfter: 1})

	resp, err := http.Get(rts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []serve.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "g" {
		t.Fatalf("merged inventory = %+v, want only the healthy worker's g", infos)
	}
	if got := rt.Metrics().Counter("router_proxy_errors"); got != 1 {
		t.Errorf("router_proxy_errors = %d, want 1", got)
	}
	if got := rt.Metrics().Counter("router_worker_ejected"); got != 1 {
		t.Errorf("router_worker_ejected = %d, want 1 (FailAfter 1: the 500 must count as a failure)", got)
	}
}

// TestRouterShutdownCancelsParkedRepair: Shutdown must not wait out the
// client timeout (none here) of a repair request parked on a stalled
// worker — the anti-entropy loop's peer calls die with the router.
func TestRouterShutdownCancelsParkedRepair(t *testing.T) {
	parked := make(chan struct{})
	peer := func(epoch uint64, stall bool) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
		mux.HandleFunc("GET /internal/digest", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, serve.DigestInfo{Graph: "g", Epoch: epoch, Digest: fmt.Sprint(epoch)})
		})
		mux.HandleFunc("POST /internal/repair", func(w http.ResponseWriter, r *http.Request) {
			if stall {
				close(parked)
				io.Copy(io.Discard, r.Body) // the server notices a hang-up only past the body
				<-r.Context().Done()
			}
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	donor, laggard := peer(2, false), peer(1, true)
	rt, err := NewRouter(RouterConfig{
		Replication:         2,
		AntiEntropyInterval: 10 * time.Millisecond,
		Client:              &http.Client{}, // no timeout: only cancellation can end the call
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []*httptest.Server{donor, laggard} {
		rt.members.register(ts.URL, []string{"g"}, time.Now())
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("anti-entropy never asked the laggard to repair")
	}
	done := make(chan error, 1)
	go func() { done <- rt.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown still waiting on the parked repair after 5s")
	}
	if got := rt.Metrics().Counter("antientropy_repairs"); got != 0 {
		t.Errorf("antientropy_repairs = %d for a repair that never answered", got)
	}
}
