package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"graphpulse/internal/graph/gen"
)

// topVertices is the ranking the serving tier shipped before results
// carried a summary: index every finite value, sort all of them, cut to n.
// It stays as the oracle the bounded selection is held to.
func topVertices(values []float64, n int) []VertexValue {
	idx := make([]int, 0, len(values))
	for i, v := range values {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := values[idx[a]], values[idx[b]]
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	if len(idx) > n {
		idx = idx[:n]
	}
	out := make([]VertexValue, len(idx))
	for i, v := range idx {
		out[i] = VertexValue{Vertex: uint32(v), Value: values[v]}
	}
	return out
}

// summaryInputs are the value-vector shapes the summary must rank like the
// oracle: smooth, tie-heavy, salted with non-finite values, all
// non-finite, and the two monotone orders (ascending is the heap's worst
// case, descending its best).
func fillNormal(rng *rand.Rand, i, n int) float64 { return rng.NormFloat64() }

var summaryInputs = []struct {
	name string
	fill func(rng *rand.Rand, i, n int) float64
}{
	{"random", fillNormal},
	{"allfinite-ties", func(rng *rand.Rand, i, n int) float64 { return float64(rng.Intn(4)) }},
	{"one-value", func(rng *rand.Rand, i, n int) float64 { return 7 }},
	{"nonfinite-salted", func(rng *rand.Rand, i, n int) float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.NaN()
		}
		return float64(rng.Intn(50)) - 25
	}},
	{"all-nonfinite", func(rng *rand.Rand, i, n int) float64 {
		return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
	}},
	{"ascending", func(rng *rand.Rand, i, n int) float64 { return float64(i) }},
	{"descending", func(rng *rand.Rand, i, n int) float64 { return float64(n - i) }},
	{"signed-zeros", func(rng *rand.Rand, i, n int) float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}},
}

func fillValues(seed int64, n int, fill func(rng *rand.Rand, i, n int) float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	for i := range values {
		values[i] = fill(rng, i, n)
	}
	return values
}

// sameVertexValues compares bit patterns, so -0 and +0 stay distinct.
func sameVertexValues(a, b []VertexValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Vertex != b[i].Vertex || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestSummaryMatchesSortOracle holds the one-pass summary to the
// sort-everything oracle: the same pairs in the same order for every
// top-k a request can ask for, and the same sum bit for bit.
func TestSummaryMatchesSortOracle(t *testing.T) {
	g := testGraph(t)
	for _, in := range summaryInputs {
		for _, n := range []int{0, 1, 9, 10, 11, 999, 1000, 1001, 4096} {
			for seed := int64(1); seed <= 3; seed++ {
				values := fillValues(seed, n, in.fill)
				res := newCachedResult(values, 3, "cold", 1, 0.5)

				wantSum := 0.0
				for _, v := range values {
					if !math.IsInf(v, 0) && !math.IsNaN(v) {
						wantSum += v
					}
				}
				if math.Float64bits(res.sum) != math.Float64bits(wantSum) {
					t.Errorf("%s n=%d seed=%d: sum %v, want %v", in.name, n, seed, res.sum, wantSum)
				}
				if want := topVertices(values, maxTopN); !sameVertexValues(res.top, want) {
					t.Fatalf("%s n=%d seed=%d: summary top diverges from the sort oracle", in.name, n, seed)
				}

				for _, k := range []int{0, 1, 10, 1000, n + 1, 5000} {
					req := &QueryRequest{Graph: "g", Top: k}
					resp := buildResponse(req, g, "solve", "pr", res, true, false)
					wantK := k
					if wantK == 0 {
						wantK = 10
					}
					if wantK > maxTopN {
						wantK = maxTopN
					}
					if want := topVertices(values, wantK); !sameVertexValues(resp.Top, want) {
						t.Errorf("%s n=%d seed=%d top=%d: got %d rows %v, want %d rows %v",
							in.name, n, seed, k, len(resp.Top), head(resp.Top), len(want), head(want))
					}
				}
				if resp := buildResponse(&QueryRequest{Graph: "g", Top: -1}, g, "solve", "pr", res, true, false); resp.Top != nil {
					t.Errorf("%s n=%d: negative top returned a list", in.name, n)
				}
			}
		}
	}
}

func head(vs []VertexValue) []VertexValue { return vs[:min(len(vs), 4)] }

// newSummaryServer serves one n-vertex graph "g" whose pr series is a
// seeded random vector adopted through a snapshot: a cache hit at any n
// without paying for a solve.
func newSummaryServer(t testing.TB, n int) http.Handler {
	t.Helper()
	g, err := gen.Chain(n, false)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, func(c *Config) { c.Graphs = []GraphSpec{{Name: "g", Graph: g}} })
	snap, err := s.ExportSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]uint64, n)
	for i, v := range fillValues(1, n, fillNormal) {
		bits[i] = math.Float64bits(v)
	}
	snap.Series = []SnapshotSeries{{Key: "solve|pr(alpha=0.85,threshold=0.0001)", Mode: "cold", Activations: int64(n), ComputeSecs: 0.25, ValuesBits: bits}}
	if err := s.ImportSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

var prTop10 = []byte(`{"graph":"g","algorithm":"pr"}`)

// TestCachedHitCostIndependentOfN is the pass/fail gate on the hit path: a
// cache hit may not allocate — or touch — anything sized by the graph, so
// a 16× larger result costs the same allocations and, within 1 KB, the
// same bytes. The allocation count is the fewest any of 50 single hits
// made: a hit that misses the response-buffer pool (the race detector drops
// a random share of sync.Pool puts; a GC empties the pool) allocates more.
func TestCachedHitCostIndependentOfN(t *testing.T) {
	type cost struct {
		allocs float64
		bytes  uint64
	}
	measure := func(n int) cost {
		h := newSummaryServer(t, n)
		if w := serveQuery(h, prTop10); w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"cached":true`)) {
			t.Fatalf("n=%d: not a cache hit: HTTP %d %s", n, w.Code, w.Body.Bytes())
		}
		allocs := math.Inf(1)
		for i := 0; i < 50; i++ {
			allocs = min(allocs, testing.AllocsPerRun(1, func() { serveQuery(h, prTop10) }))
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serveQuery(h, prTop10)
		}
		runtime.ReadMemStats(&after)
		return cost{allocs, (after.TotalAlloc - before.TotalAlloc) / runs}
	}
	small, large := measure(4096), measure(65536)
	t.Logf("cached hit: n=4096 %.0f allocs %d B/op; n=65536 %.0f allocs %d B/op", small.allocs, small.bytes, large.allocs, large.bytes)
	if small.allocs != large.allocs {
		t.Errorf("allocations per hit depend on n: %.0f at 4096, %.0f at 65536", small.allocs, large.allocs)
	}
	if diff := int64(large.bytes) - int64(small.bytes); diff > 1024 || diff < -1024 {
		t.Errorf("bytes per hit depend on n: %d at 4096, %d at 65536", small.bytes, large.bytes)
	}
}

// TestAnswerSameOnEveryPath sends one request shape down every path that
// can produce its answer — the miss that computes it, a waiter coalesced
// onto that computation, the hit that follows, and a hit on a fresh server
// that adopted the entry from a snapshot — and requires the projected part
// of the answer to be the same bytes on all four.
func TestAnswerSameOnEveryPath(t *testing.T) {
	s1, _ := newTestServer(t, nil)
	h1 := s1.Handler()
	req := QueryRequest{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3)), Top: 25, Vertices: vertexRange(220)}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	gate := newStallGate(s1)
	bodies := make(chan []byte, 2)
	go func() { bodies <- serveQuery(h1, raw).Body.Bytes() }()
	<-gate.entered
	go func() { bodies <- serveQuery(h1, raw).Body.Bytes() }()
	waitCounter(t, s1.Metrics(), "query_coalesced", 1)
	close(gate.release)
	answers := map[string][]byte{"first": <-bodies, "second": <-bodies}
	answers["hit"] = inprocQuery(t, h1, req)

	snap, err := s1.ExportSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestServer(t, nil)
	if err := s2.ImportSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	answers["restored"] = inprocQuery(t, s2.Handler(), req)

	type projection struct {
		Cached    bool            `json:"cached"`
		Coalesced bool            `json:"coalesced"`
		Sum       json.RawMessage `json:"sum"`
		Top       json.RawMessage `json:"top"`
		Values    json.RawMessage `json:"values"`
	}
	parsed := map[string]projection{}
	coalesced := 0
	for name, body := range answers {
		var p projection
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("%s: %v: %s", name, err, body)
		}
		if p.Coalesced {
			coalesced++
		}
		parsed[name] = p
	}
	if coalesced != 1 || parsed["first"].Cached || parsed["second"].Cached || !parsed["hit"].Cached || !parsed["restored"].Cached {
		t.Fatalf("paths not exercised: %d coalesced, cached first=%v second=%v hit=%v restored=%v", coalesced,
			parsed["first"].Cached, parsed["second"].Cached, parsed["hit"].Cached, parsed["restored"].Cached)
	}
	want := parsed["first"]
	if len(want.Top) == 0 || len(want.Values) == 0 {
		t.Fatalf("answer has no top or values: %s", answers["first"])
	}
	for name, p := range parsed {
		if !bytes.Equal(p.Sum, want.Sum) || !bytes.Equal(p.Top, want.Top) || !bytes.Equal(p.Values, want.Values) {
			t.Errorf("%s answer differs from the computing request's:\n%s\n%s", name, answers[name], answers["first"])
		}
	}
}

// plainResponse has QueryResponse's fields and tags but not its
// MarshalJSON, so encoding/json encodes it by reflection: the reference
// the hand-written encoder is held to. A field added to QueryResponse and
// forgotten in appendQueryResponse shows up here as a diff.
type plainResponse QueryResponse

func encoderCases() []*QueryResponse {
	rng := rand.New(rand.NewSource(5))
	vv := func(n int, nonFinite bool) []VertexValue {
		out := make([]VertexValue, n)
		for i := range out {
			out[i] = VertexValue{Vertex: rng.Uint32(), Value: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))}
			if nonFinite {
				out[i].Value = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}[i%5]
			}
		}
		return out
	}
	base := QueryResponse{
		Graph: "wg", Epoch: 42, Algorithm: "pr(alpha=0.85,threshold=0.0001)", Engine: "solve",
		Mode: "cold", NumVertices: 65536, NumEdges: 1 << 20, Activations: 123456789, ComputeSecs: 0.1172, Sum: 65535.99999,
	}
	var cases []*QueryResponse
	add := func(mut func(r *QueryResponse)) {
		r := base
		mut(&r)
		cases = append(cases, &r)
	}
	add(func(r *QueryResponse) {})
	add(func(r *QueryResponse) { r.Top = []VertexValue{}; r.Values = []VertexValue{} })
	add(func(r *QueryResponse) { r.Top = vv(10, false); r.Cached, r.Mode = true, "cache" })
	add(func(r *QueryResponse) { r.Top, r.Values, r.Coalesced = vv(1000, false), vv(1000, false), true })
	add(func(r *QueryResponse) { r.Values = vv(10, true) })
	add(func(r *QueryResponse) { r.Top = vv(10, true); r.Coalesced = true })
	add(func(r *QueryResponse) { *r = QueryResponse{} })
	add(func(r *QueryResponse) { r.Graph = "a \"quoted\" <graph> & \u2028 caf\u00e9 \x01\t\\" })
	add(func(r *QueryResponse) { r.Graph = "bad utf8 \xff" })
	add(func(r *QueryResponse) { r.NumVertices, r.NumEdges, r.Activations = -1, math.MaxInt64, math.MinInt64 })
	add(func(r *QueryResponse) { r.Epoch = math.MaxUint64 })
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1.5e-7, 1e-10, 1e20, 1e21, 1.234e22, -1e-9, -3e300, 5e-324, math.MaxFloat64, 100, 0.1} {
		f := f
		add(func(r *QueryResponse) { r.ComputeSecs, r.Sum = f, -f })
	}
	return cases
}

// TestEncoderMatchesEncodingJSON is the differential test for the append
// encoder: the handler's bytes, json.Marshal of a QueryResponse (through
// MarshalJSON) and json.Marshal of the method-less mirror must agree, and
// a non-finite number must be refused by both.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	for i, r := range encoderCases() {
		want, err := json.Marshal((*plainResponse)(r))
		if err != nil {
			t.Fatalf("case %d: reference: %v", i, err)
		}
		got, err := appendQueryResponse(nil, r)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: append encoder\n%s\nencoding/json\n%s", i, got, want)
		}
		for name, v := range map[string]any{"pointer": r, "value": *r} {
			viaMarshal, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, name, err)
			}
			if !bytes.Equal(viaMarshal, want) {
				t.Errorf("case %d: json.Marshal(%s)\n%s\nwant\n%s", i, name, viaMarshal, want)
			}
		}
		// Appending must extend what the buffer already holds.
		if withPrefix, _ := appendQueryResponse([]byte("xy"), r); !bytes.Equal(withPrefix[2:], want) || string(withPrefix[:2]) != "xy" {
			t.Errorf("case %d: append onto a prefix lost bytes", i)
		}
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, r := range []*QueryResponse{{Sum: f}, {ComputeSecs: f}} {
			if _, err := json.Marshal((*plainResponse)(r)); err == nil {
				t.Fatalf("reference encoded %v", f)
			}
			if _, err := appendQueryResponse(nil, r); err == nil {
				t.Errorf("append encoder accepted non-finite %v", f)
			}
		}
	}
	// Every field of QueryResponse must be set by some case above, or a
	// new field could ride along untested.
	seen := map[string]bool{}
	for _, r := range encoderCases() {
		v := reflect.ValueOf(*r)
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				seen[v.Type().Field(i).Name] = true
			}
		}
	}
	for i, typ := 0, reflect.TypeOf(QueryResponse{}); i < typ.NumField(); i++ {
		if !seen[typ.Field(i).Name] {
			t.Errorf("no encoder case sets QueryResponse.%s", typ.Field(i).Name)
		}
	}
}

// TestVertexValueWireForm pins the per-element codec against the
// fmt-built form it replaced.
func TestVertexValueWireForm(t *testing.T) {
	for _, v := range []VertexValue{
		{0, 0}, {7, 1.5}, {math.MaxUint32, -2.25e-9}, {1, 1e21}, {2, 123456789.125}, {3, 1e6},
		{4, math.Inf(1)}, {5, math.Inf(-1)}, {6, math.NaN()}, {8, math.Copysign(0, -1)},
	} {
		val := fmt.Sprintf("%g", v.Value)
		switch {
		case math.IsInf(v.Value, 1):
			val = `"Infinity"`
		case math.IsInf(v.Value, -1):
			val = `"-Infinity"`
		case math.IsNaN(v.Value):
			val = `"NaN"`
		}
		want := fmt.Sprintf(`{"vertex":%d,"value":%s}`, v.Vertex, val)
		if got := string(appendVertexValue(nil, v)); got != want {
			t.Errorf("appendVertexValue(%v) = %s, want %s", v, got, want)
		}
		if got, _ := json.Marshal(v); string(got) != want {
			t.Errorf("json.Marshal(%v) = %s, want %s", v, got, want)
		}
	}
}

// TestSnapshotExportDeterministic exports one server state twice and
// requires the same bytes: Series used to come out in map order.
func TestSnapshotExportDeterministic(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	for _, req := range []QueryRequest{
		{Graph: "g", Algorithm: "pr"},
		{Graph: "g", Algorithm: "cc"},
		{Graph: "g", Algorithm: "bfs", Root: ptr(uint32(1))},
		{Graph: "g", Algorithm: "bfs", Root: ptr(uint32(2))},
		{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3))},
		{Graph: "g", Algorithm: "sswp", Root: ptr(uint32(4))},
	} {
		inprocQuery(t, h, req)
	}
	var first []byte
	for i := 0; i < 8; i++ {
		snap, err := s.ExportSnapshot("g")
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Series) != 6 {
			t.Fatalf("snapshot has %d series, want 6", len(snap.Series))
		}
		wire, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = wire
		} else if !bytes.Equal(wire, first) {
			t.Fatalf("export %d differs from the first export of the same state", i)
		}
		if !sort.SliceIsSorted(snap.Series, func(a, b int) bool { return snap.Series[a].Key < snap.Series[b].Key }) {
			t.Fatalf("series not sorted by key")
		}
	}
}
