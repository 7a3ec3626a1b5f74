package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

// serveQuery posts one encoded /v1/query body to a handler without a
// socket.
func serveQuery(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return w
}

// inprocQuery is serveQuery for a request that must succeed; it returns
// the raw response body (newline included).
func inprocQuery(t testing.TB, h http.Handler, req QueryRequest) []byte {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := serveQuery(h, raw)
	if w.Code != http.StatusOK {
		t.Fatalf("query %s: HTTP %d: %s", raw, w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes()
}

// computeSecondsRE matches the one wall-clock field of a query answer.
var computeSecondsRE = regexp.MustCompile(`"compute_seconds":[^,]+`)

func maskComputeSeconds(body []byte) []byte {
	return computeSecondsRE.ReplaceAll(body, []byte(`"compute_seconds":0`))
}

// goldenShapes are the request shapes the answer golden pins: default and
// clamped top, no list, point lookups with out-of-range ids, a rooted path
// algorithm with unreachable vertices, and a label algorithm whose values
// are almost all ties.
func goldenShapes() []QueryRequest {
	return []QueryRequest{
		{Graph: "g", Algorithm: "pr"},
		{Graph: "g", Algorithm: "pr", Top: 5000, Vertices: []uint32{0, 5, 199, 200, 4_000_000_000}},
		{Graph: "g", Algorithm: "pr", Top: -1, Vertices: []uint32{1, 2}},
		{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3)), Top: 5, Vertices: vertexRange(200)},
		{Graph: "g", Algorithm: "cc", Top: 1000},
	}
}

// syntheticSeries are fixed points no solver produced, imported through a
// snapshot: heavy ties, ±Inf, NaN, negative and extreme magnitudes, an
// all-non-finite vector, and compute_seconds values on both sides of
// encoding/json's exponent switch.
func syntheticSeries(n int) []SnapshotSeries {
	bits := func(f func(i int) float64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = math.Float64bits(f(i))
		}
		return out
	}
	return []SnapshotSeries{
		{Key: "solve|cc()", Mode: "warm", Activations: 12345, ComputeSecs: 1.5e-7, ValuesBits: bits(func(i int) float64 {
			switch {
			case i%11 == 0:
				return math.Inf(1)
			case i%13 == 0:
				return math.Inf(-1)
			case i%17 == 0:
				return math.NaN()
			case i == 1:
				return 1e21
			case i == 2:
				return 123456789.125
			case i == 3:
				return -2.5e-7
			}
			return float64(i % 7)
		})},
		{Key: "solve|sssp(root=0)", Mode: "cold", Activations: 0, ComputeSecs: 0.00123, ValuesBits: bits(func(i int) float64 {
			if i%2 == 0 {
				return math.Inf(1)
			}
			return math.NaN()
		})},
		{Key: "solve|bfs(root=0)", Mode: "cone", Activations: 1 << 40, ComputeSecs: 3e21, ValuesBits: bits(func(i int) float64 {
			return float64(i%3) * 1e6
		})},
	}
}

// TestQueryAnswerGolden pins the /v1/query wire bytes. The golden was
// captured before the cached-result summary and the append encoder
// existed, so it is the proof that neither changed an answer: for one
// server state a miss, the hit that follows, a coalesced waiter, and the
// same entry restored from a snapshot on a fresh server must all still
// produce those bytes.
func TestQueryAnswerGolden(t *testing.T) {
	s1, _ := newTestServer(t, nil)
	h1 := s1.Handler()
	var out bytes.Buffer
	record := func(name string, body []byte) {
		fmt.Fprintf(&out, "## %s\n%s", name, body)
	}

	// A coalesced waiter: hold the leader's computation open until the
	// follower has joined it.
	gate := newStallGate(s1)
	bfs := QueryRequest{Graph: "g", Algorithm: "bfs", Root: ptr(uint32(7)), Top: 3}
	rawBFS, err := json.Marshal(bfs)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make(chan []byte, 2)
	go func() { bodies <- serveQuery(h1, rawBFS).Body.Bytes() }()
	<-gate.entered
	go func() { bodies <- serveQuery(h1, rawBFS).Body.Bytes() }()
	waitCounter(t, s1.Metrics(), "query_coalesced", 1)
	close(gate.release)
	a, b := <-bodies, <-bodies
	if bytes.Contains(a, []byte(`"coalesced":true`)) {
		a, b = b, a
	}
	record("bfs leader", maskComputeSeconds(a))
	record("bfs coalesced", maskComputeSeconds(b))
	s1.testComputeStall = nil

	shapes := goldenShapes()
	for i, req := range shapes {
		record(fmt.Sprintf("shape %d miss-or-first", i), maskComputeSeconds(inprocQuery(t, h1, req)))
		record(fmt.Sprintf("shape %d hit", i), maskComputeSeconds(inprocQuery(t, h1, req)))
	}

	// The same entries after export → wire → import on a fresh server.
	snap, err := s1.ExportSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestServer(t, nil)
	if err := s2.ImportSnapshot(&decoded); err != nil {
		t.Fatal(err)
	}
	h2 := s2.Handler()
	for i, req := range append(shapes, bfs) {
		record(fmt.Sprintf("shape %d restored", i), maskComputeSeconds(inprocQuery(t, h2, req)))
	}
	if n := s2.Metrics().Counter("query_cache_misses"); n != 0 {
		t.Errorf("restored server missed %d times, want 0", n)
	}

	// Hand-made fixed points, compute_seconds unmasked.
	s3, _ := newTestServer(t, nil)
	snap3, err := s3.ExportSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	snap3.Series = syntheticSeries(snap3.NumVertices)
	if err := s3.ImportSnapshot(snap3); err != nil {
		t.Fatal(err)
	}
	h3 := s3.Handler()
	probe := []uint32{0, 1, 2, 3, 4, 11, 13, 17, 199, 200}
	for _, req := range []QueryRequest{
		{Graph: "g", Algorithm: "cc", Vertices: probe},
		{Graph: "g", Algorithm: "cc", Top: 1, Vertices: probe[:1]},
		{Graph: "g", Algorithm: "cc", Top: 1000},
		{Graph: "g", Algorithm: "sssp", Vertices: probe},
		{Graph: "g", Algorithm: "bfs", Top: 12},
	} {
		record(fmt.Sprintf("synthetic %s top=%d", req.Algorithm, req.Top), inprocQuery(t, h3, req))
	}
	if n := s3.Metrics().Counter("query_cache_misses"); n != 0 {
		t.Errorf("synthetic server missed %d times, want 0", n)
	}

	checkGolden(t, "query_answers", out.Bytes())
}
