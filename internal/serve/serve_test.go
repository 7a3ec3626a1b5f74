package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// testGraph builds the small weighted graph the suite serves.
func testGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := gen.ErdosRenyi(200, 900, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newTestServer builds a Server over testGraph with overrides applied and
// an httptest frontend. The httptest server closes before the pool drains
// so no handler can hit a closed jobs channel.
func newTestServer(t testing.TB, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Graphs:         []GraphSpec{{Name: "g", Graph: testGraph(t)}},
		DefaultTimeout: 5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte, http.Header) {
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
	return resp.StatusCode, data, resp.Header
}

func doQuery(t *testing.T, url string, req QueryRequest) *QueryResponse {
	t.Helper()
	code, body, _ := postJSON(t, url+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("query: HTTP %d: %s", code, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("query response: %v", err)
	}
	return &out
}

func vertexRange(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// TestQueryMatchesOracle checks served values against the reference
// solver for a sum-based and a monotone algorithm.
func TestQueryMatchesOracle(t *testing.T) {
	s, ts := newTestServer(t, nil)
	g, _ := s.graphs["g"].snapshot()
	all := vertexRange(g.NumVertices())

	for _, tc := range []struct {
		req QueryRequest
		alg algorithms.Algorithm
	}{
		{QueryRequest{Graph: "g", Algorithm: "pr", Vertices: all}, algorithms.NewPageRankDelta()},
		{QueryRequest{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3)), Vertices: all}, algorithms.NewSSSP(3)},
	} {
		resp := doQuery(t, ts.URL, tc.req)
		if resp.Mode != "cold" || resp.Cached {
			t.Errorf("%s: mode=%q cached=%v, want cold/false", tc.req.Algorithm, resp.Mode, resp.Cached)
		}
		want := algorithms.Solve(g, tc.alg)
		got := valuesOf(resp, g.NumVertices())
		tol := conformance.Tolerance(tc.alg, g)
		if err := conformance.CompareValues("serve/"+tc.req.Algorithm, got, want.Values, tol); err != nil {
			t.Error(err)
		}
	}
}

func ptr[T any](v T) *T { return &v }

func valuesOf(resp *QueryResponse, n int) []float64 {
	out := make([]float64, n)
	for _, vv := range resp.Values {
		out[vv.Vertex] = vv.Value
	}
	return out
}

// TestCacheHit pins the versioned-cache behaviour: a repeated query is a
// hit, a parameter change is a miss, and the counters record both. There
// is one series per algorithm: an "engine" key in the body, which older
// clients send, is ignored like any unknown field.
func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, nil)
	req := QueryRequest{Graph: "g", Algorithm: "pr"}

	first := doQuery(t, ts.URL, req)
	if first.Cached {
		t.Fatal("first query served from an empty cache")
	}
	second := doQuery(t, ts.URL, req)
	if !second.Cached || second.Mode != "cache" {
		t.Fatalf("second query: cached=%v mode=%q, want true/cache", second.Cached, second.Mode)
	}
	if first.Sum != second.Sum {
		t.Fatalf("cache returned different values: %g vs %g", first.Sum, second.Sum)
	}
	// Different parameters form a different cache key.
	third := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "pr", Alpha: ptr(0.5)})
	if third.Cached {
		t.Fatal("parameter change must not hit the cache")
	}
	code, body, _ := postJSON(t, ts.URL+"/v1/query", json.RawMessage(`{"graph":"g","algorithm":"sssp","root":3,"engine":"psolve"}`))
	var legacy QueryResponse
	if code != http.StatusOK || json.Unmarshal(body, &legacy) != nil {
		t.Fatalf(`query with "engine":"psolve": HTTP %d: %s`, code, body)
	}
	if legacy.Cached || legacy.Engine != "solve" {
		t.Fatalf(`query with "engine":"psolve": cached=%v engine=%q, want false/solve`, legacy.Cached, legacy.Engine)
	}
	plain := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3))})
	if !plain.Cached || plain.Sum != legacy.Sum {
		t.Fatalf("same query without engine: cached=%v sum=%g, want a hit with sum %g", plain.Cached, plain.Sum, legacy.Sum)
	}
	m := s.Metrics()
	if hits, misses := m.Counter("query_cache_hits"), m.Counter("query_cache_misses"); hits != 2 || misses != 3 {
		t.Fatalf("counters: hits=%d misses=%d, want 2/3", hits, misses)
	}
}

// stallGate holds pooled computations open until released, making
// saturation, coalescing, deadline, and drain behaviour deterministic.
type stallGate struct {
	entered chan struct{}
	release chan struct{}
}

func newStallGate(s *Server) *stallGate {
	g := &stallGate{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	s.testComputeStall = func(ctx context.Context) {
		g.entered <- struct{}{}
		select {
		case <-g.release:
		case <-ctx.Done():
		}
	}
	return g
}

// TestSingleflightCoalesce fires identical concurrent misses and asserts
// exactly one computation ran, observable through the coalesced counter.
func TestSingleflightCoalesce(t *testing.T) {
	s, ts := newTestServer(t, nil)
	gate := newStallGate(s)
	req := QueryRequest{Graph: "g", Algorithm: "pr"}

	const clients = 5
	var wg sync.WaitGroup
	results := make([]*QueryResponse, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = doQuery(t, ts.URL, req)
		}(i)
	}
	// One leader reaches the stall; wait for every follower to join it.
	<-gate.entered
	waitCounter(t, s.Metrics(), "query_coalesced", clients-1)
	close(gate.release)
	wg.Wait()

	m := s.Metrics()
	if cold := m.Counter("query_cold_solves"); cold != 1 {
		t.Errorf("cold solves = %d, want 1 (singleflight)", cold)
	}
	if co := m.Counter("query_coalesced"); co != clients-1 {
		t.Errorf("coalesced = %d, want %d", co, clients-1)
	}
	for i, r := range results {
		if r.Sum != results[0].Sum {
			t.Errorf("client %d saw different values", i)
		}
	}
}

func waitCounter(t *testing.T, m *Metrics, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Counter(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s = %d, want %d (timeout)", name, m.Counter(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControl saturates a 1-worker/1-slot pool and asserts the
// overflow request is rejected with 429 + Retry-After instead of queuing
// or hanging, and that the server recovers afterwards.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	gate := newStallGate(s)

	var wg sync.WaitGroup
	startQuery := func(root uint32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{
				Graph: "g", Algorithm: "sssp", Root: &root,
			})
			if code != http.StatusOK {
				t.Errorf("stalled query got HTTP %d, want 200", code)
			}
		}()
	}
	startQuery(1) // occupies the worker
	<-gate.entered
	startQuery(2) // occupies the queue slot
	waitQueueLen(t, s, 1)

	// The pool is saturated: one executing, one queued. Next is bounced.
	code, body, hdr := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3)),
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated query: HTTP %d (%s), want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := s.Metrics().Counter("query_rejected"); got != 1 {
		t.Errorf("query_rejected = %d, want 1", got)
	}

	close(gate.release)
	wg.Wait()
	// Recovered: the previously rejected query now succeeds.
	resp := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3))})
	if resp.Mode != "cold" {
		t.Errorf("post-saturation query mode = %q, want cold", resp.Mode)
	}
}

func waitQueueLen(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.jobs) < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue length %d, want %d (timeout)", len(s.jobs), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineExceeded pins deadline propagation: the request times out
// with 504, and the abandoned computation is canceled through its context
// rather than running to completion.
func TestDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, nil)
	newStallGate(s) // never released: compute blocks until its ctx dies

	code, body, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Graph: "g", Algorithm: "pr", TimeoutMS: 50,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d (%s), want 504", code, body)
	}
	m := s.Metrics()
	if got := m.Counter("query_deadline_exceeded"); got != 1 {
		t.Errorf("query_deadline_exceeded = %d, want 1", got)
	}
	// The last waiter leaving cancels the compute context; the stalled
	// computation unblocks into SolveCtx, which observes the canceled
	// context and aborts.
	waitCounter(t, m, "compute_canceled", 1)
	if got := m.Counter("query_cold_solves"); got != 0 {
		t.Errorf("canceled computation still counted as a solve (%d)", got)
	}
}

// TestDrainOnShutdown starts a real listener, parks a request in compute,
// initiates Shutdown, and asserts the request completes with 200 before
// Shutdown returns.
func TestDrainOnShutdown(t *testing.T) {
	s, err := New(Config{Graphs: []GraphSpec{{Name: "g", Graph: testGraph(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	gate := newStallGate(s)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr.String()

	type result struct {
		code int
		body []byte
	}
	reqDone := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(QueryRequest{Graph: "g", Algorithm: "pr"})
		resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			reqDone <- result{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		reqDone <- result{code: resp.StatusCode, body: body}
	}()
	<-gate.entered // the request is parked in compute

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request, not race it.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)

	r := <-reqDone
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: HTTP %d (%s), want 200", r.code, r.body)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestMutateThenQueryWarmStarts covers the streaming path: a converged
// query, a mutation batch, and a re-query that warm-starts from the prior
// fixed point yet matches a from-scratch solve on the mutated graph.
func TestMutateThenQueryWarmStarts(t *testing.T) {
	s, ts := newTestServer(t, nil)
	g, _ := s.graphs["g"].snapshot()
	all := vertexRange(g.NumVertices())

	cold := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "pr", Vertices: all})
	if cold.Epoch != 0 || cold.Mode != "cold" {
		t.Fatalf("first query: epoch=%d mode=%q", cold.Epoch, cold.Mode)
	}

	added := []EdgeJSON{
		{Src: 0, Dst: 17, Weight: 0.5}, {Src: 42, Dst: 3, Weight: 1.5},
		{Src: 17, Dst: 42, Weight: 0.25}, {Src: 199, Dst: 0, Weight: 2},
	}
	code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{Graph: "g", Edges: added})
	if code != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", code, body)
	}
	var mut MutateResponse
	if err := json.Unmarshal(body, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.Epoch != 1 || mut.NumEdges != g.NumEdges()+len(added) {
		t.Fatalf("mutate response: epoch=%d edges=%d", mut.Epoch, mut.NumEdges)
	}

	warm := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "pr", Vertices: all})
	if warm.Epoch != 1 {
		t.Fatalf("post-mutate query epoch = %d, want 1", warm.Epoch)
	}
	if warm.Mode != "warm" {
		t.Fatalf("post-mutate query mode = %q, want warm", warm.Mode)
	}
	if got := s.Metrics().Counter("query_warm_starts"); got != 1 {
		t.Errorf("query_warm_starts = %d, want 1", got)
	}

	// Oracle: from-scratch solve on the mutated graph.
	edges := g.Edges()
	for _, e := range added {
		edges = append(edges, graph.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
	}
	ng, err := graph.FromEdges(g.NumVertices(), edges, true)
	if err != nil {
		t.Fatal(err)
	}
	alg := algorithms.NewPageRankDelta()
	want := algorithms.Solve(ng, alg)
	got := valuesOf(warm, ng.NumVertices())
	if err := conformance.CompareValues("warm-vs-cold", got, want.Values, conformance.Tolerance(alg, ng)); err != nil {
		t.Error(err)
	}
}

// TestBadRequests pins the error surface: status codes, structured error
// bodies (naming where to go instead, when that is the point), and the
// counter.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, nil)
	cases := []struct {
		name    string
		path    string
		body    any
		want    int
		wantMsg string
	}{
		{"unknown graph", "/v1/query", QueryRequest{Graph: "nope", Algorithm: "pr"}, http.StatusNotFound, ""},
		{"missing algorithm", "/v1/query", QueryRequest{Graph: "g"}, http.StatusBadRequest, ""},
		{"unknown algorithm", "/v1/query", QueryRequest{Graph: "g", Algorithm: "magic"}, http.StatusBadRequest, ""},
		{"root out of range", "/v1/query", QueryRequest{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(4000))}, http.StatusBadRequest, ""},
		{"bad alpha", "/v1/query", QueryRequest{Graph: "g", Algorithm: "pr", Alpha: ptr(1.5)}, http.StatusBadRequest, ""},
		{"mutate unknown graph", "/v1/mutate", MutateRequest{Graph: "nope", Edges: []EdgeJSON{{Src: 0, Dst: 1}}}, http.StatusNotFound, ""},
		{"mutate empty batch", "/v1/mutate", MutateRequest{Graph: "g"}, http.StatusBadRequest, ""},
		{"mutate out-of-range edge", "/v1/mutate", MutateRequest{Graph: "g", Edges: []EdgeJSON{{Src: 0, Dst: 9999}}}, http.StatusBadRequest, ""},
		{"mutate negative weight", "/v1/mutate", MutateRequest{Graph: "g", Edges: []EdgeJSON{{Src: 12, Dst: 13, Weight: 1}, {Src: 13, Dst: 12, Weight: -1}}}, http.StatusBadRequest, "non-negative"},
		{"mutate malformed body", "/v1/mutate", "not a batch", http.StatusBadRequest, "bad mutate body"},
	}
	var mutates int64
	for _, tc := range cases {
		if tc.path == "/v1/mutate" {
			mutates++
		}
		code, body, _ := postJSON(t, ts.URL+tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, code, body, tc.want)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not structured", tc.name, body)
		}
		if !strings.Contains(e.Error, tc.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantMsg)
		}
	}
	// Every rejected batch is counted, and none bumps the epoch.
	if got := s.Metrics().Counter("mutate_errors"); got != mutates {
		t.Errorf("mutate_errors = %d, want %d", got, mutates)
	}
	if _, epoch := s.graphs["g"].snapshot(); epoch != 0 {
		t.Errorf("failed mutate bumped epoch to %d", epoch)
	}
}

// TestInventoryAndHealth covers /v1/graphs, /healthz, and /metrics.
func TestInventoryAndHealth(t *testing.T) {
	s, ts := newTestServer(t, nil)
	g, _ := s.graphs["g"].snapshot()

	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "g" || infos[0].NumVertices != g.NumVertices() {
		t.Fatalf("inventory: %+v", infos)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hz)
	}
	hz.Body.Close()

	doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "cc"})
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	text := string(raw)
	for _, name := range append(append([]string{}, serveCounters...), serveHistograms...) {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
	if !strings.Contains(text, "query_requests") {
		t.Errorf("metrics text: %s", text)
	}
}

// TestVertexValueJSONRoundTrip pins the non-finite value encoding.
func TestVertexValueJSONRoundTrip(t *testing.T) {
	for _, v := range []VertexValue{
		{Vertex: 1, Value: 3.5},
		{Vertex: 2, Value: inf(1)},
		{Vertex: 3, Value: inf(-1)},
	} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %+v: %v", v, err)
		}
		var back VertexValue
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if back != v {
			t.Errorf("round trip %+v → %s → %+v", v, raw, back)
		}
	}
}

func inf(sign int) float64 {
	return float64(sign) * 1e308 * 10 // overflows to ±Inf
}

// TestParseGraphArg covers the CLI graph-spec syntax.
func TestParseGraphArg(t *testing.T) {
	for _, tc := range []struct {
		in        string
		name, src string
		wantErr   bool
	}{
		{in: "wg=WG:tiny", name: "wg", src: "WG:tiny"},
		{in: "WG:tiny", name: "wg", src: "WG:tiny"},
		{in: "web=/data/crawl.el", name: "web", src: "/data/crawl.el"},
		{in: "x=", wantErr: true},
	} {
		spec, err := ParseGraphArg(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: expected error", tc.in)
			}
			continue
		}
		if err != nil || spec.Name != tc.name || spec.Source != tc.src {
			t.Errorf("%q → %+v, %v; want %s=%s", tc.in, spec, err, tc.name, tc.src)
		}
	}
}

// TestLoadDatasetSource checks the "ABBREV:tier" source path through the
// shared gen cache: the resident graph is the cache's CSR itself.
func TestLoadDatasetSource(t *testing.T) {
	s, err := New(Config{
		Graphs: []GraphSpec{{Name: "wg", Source: "WG:tiny"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	g, _ := s.graphs["wg"].snapshot()
	if g.NumVertices() != 1<<12 {
		t.Errorf("WG:tiny has %d vertices, want %d", g.NumVertices(), 1<<12)
	}
	spec, err := gen.DatasetByAbbrev("WG")
	if err != nil {
		t.Fatal(err)
	}
	if want, err := gen.Default.Generate(spec, gen.Tiny); err != nil || g != want {
		t.Errorf("resident WG:tiny is not gen.Default's CSR (err %v)", err)
	}
}

// TestWarmPathWindow checks warm-start bookkeeping across several
// mutations: a fixed point cached two epochs back still warm-starts, and
// one beyond the history window falls back to a cold solve.
func TestWarmPathWindow(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MutationHistory = 2 })
	mutate := func(src, dst uint32) {
		code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
			Graph: "g", Edges: []EdgeJSON{{Src: src, Dst: dst, Weight: 1}},
		})
		if code != http.StatusOK {
			t.Fatalf("mutate: HTTP %d: %s", code, body)
		}
	}
	doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "cc"}) // cold at epoch 0
	mutate(0, 1)
	mutate(1, 2) // epoch 2; history holds both batches
	r := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "cc"})
	if r.Mode != "warm" {
		t.Errorf("query across 2-batch gap: mode %q, want warm (history=2)", r.Mode)
	}
	mutate(2, 3)
	mutate(3, 4)
	mutate(4, 5) // epoch 5; the epoch-2 fixed point is out of the window
	r = doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "cc"})
	if r.Mode != "cold" {
		t.Errorf("query past history window: mode %q, want cold", r.Mode)
	}
}

// TestAlgorithmVocabulary: every algorithms.Names entry resolves through
// makeAlgorithm to the cache key snapshots persist, a rooted name with a
// root past the last vertex is a 400, and an unknown name's 400 body
// enumerates the same vocabulary the CLIs print.
func TestAlgorithmVocabulary(t *testing.T) {
	wantKey := map[string]string{
		"pr": "pr(alpha=0.85,threshold=0.0001)", "ads": "ads(alpha=0.8,threshold=0.0001)",
		"sssp": "sssp(root=7)", "bfs": "bfs(root=7)", "reach": "reach(root=7)", "cc": "cc()",
		"sswp": "sswp(root=7)", "relpath": "relpath(root=7)",
	}
	s, ts := newTestServer(t, nil)
	g, _ := s.graphs["g"].snapshot()
	for _, name := range algorithms.Names() {
		alg, key, err := makeAlgorithm(&QueryRequest{Algorithm: name, Root: ptr(uint32(7))})
		if err != nil || alg == nil || key != wantKey[name] {
			t.Errorf("makeAlgorithm(%s) = %v, key %q, %v; want key %q", name, alg, key, err, wantKey[name])
		}
		if !algorithms.Rooted(name) {
			continue
		}
		code, body, _ := postJSON(t, ts.URL+"/v1/query",
			QueryRequest{Graph: "g", Algorithm: name, Root: ptr(uint32(g.NumVertices()))})
		if code != http.StatusBadRequest || !strings.Contains(string(body), "out of range") {
			t.Errorf("%s rooted at n: HTTP %d (%s), want 400 out of range", name, code, body)
		}
	}
	if len(wantKey) != len(algorithms.Names()) {
		t.Errorf("key table covers %d names, registry has %d", len(wantKey), len(algorithms.Names()))
	}
	_, key, err := makeAlgorithm(&QueryRequest{Algorithm: "pr", Alpha: ptr(0.5), Threshold: ptr(1e-7)})
	if err != nil || key != "pr(alpha=0.5,threshold=1e-07)" {
		t.Errorf("overridden pr key = %q, %v", key, err)
	}
	code, body, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{Graph: "g", Algorithm: "magic"})
	if code != http.StatusBadRequest || !strings.Contains(string(body), algorithms.NamesList()) {
		t.Errorf("unknown algorithm: HTTP %d (%s), want 400 listing %s", code, body, algorithms.NamesList())
	}
}
