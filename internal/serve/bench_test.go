package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// BenchmarkHandlerCached is the whole in-process cache hit — decode, cache
// lookup, projection, encode — at two graph sizes; the two must cost the
// same (TestCachedHitCostIndependentOfN is the gate, this is the number).
func BenchmarkHandlerCached(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := newSummaryServer(b, n)
			serveQuery(h, prTop10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveQuery(h, prTop10)
			}
		})
	}
}

var benchResult *cachedResult

// BenchmarkSummarize is what a result pays once, on entering the cache,
// at n = 65,536: the sum and the default top, and, as <input>/wide, that
// plus the maxTopN ranking the first wider request builds. Ascending input
// replaces the heap root on every element — the selection's worst case.
func BenchmarkSummarize(b *testing.B) {
	const n = 65536
	for _, in := range summaryInputs {
		switch in.name {
		case "random", "ascending", "allfinite-ties", "nonfinite-salted":
		default:
			continue
		}
		values := fillValues(1, n, in.fill)
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchResult = newCachedResult(values, 0, "cold", 0, 0)
			}
		})
		b.Run(in.name+"/wide", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchResult = newCachedResult(values, 0, "cold", 0, 0)
				benchResult.ranking(maxTopN)
			}
		})
	}
}

// BenchmarkWarmRequery is mutate-churn's cycle in process, on its graph
// (WG-shape mini): a 16-edge insert, then pr, sssp (from the highest-degree
// vertex) and cc re-queries, each a warm start from the epoch before. The
// insert is outside the timer, so ms/query and B/op are the re-queries'.
func BenchmarkWarmRequery(b *testing.B) {
	spec, err := gen.DatasetByAbbrev("WG")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(gen.Mini)
	if err != nil {
		b.Fatal(err)
	}
	hub := graph.VertexID(0)
	for v := range graph.VertexID(g.NumVertices()) {
		if g.OutDegree(v) > g.OutDegree(hub) {
			hub = v
		}
	}
	s, _ := newTestServer(b, func(c *Config) { c.Graphs[0].Graph = g })
	h := s.Handler()
	var queries [][]byte
	for _, req := range []QueryRequest{
		{Graph: "g", Algorithm: "pr"},
		{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(hub))},
		{Graph: "g", Algorithm: "cc"},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, raw)
	}
	rng := rand.New(rand.NewSource(1))
	insert := func() {
		req := MutateRequest{Graph: "g"}
		for range 16 {
			src, dst := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
			req.Edges = append(req.Edges, EdgeJSON{Src: uint32(src), Dst: uint32(dst), Weight: float32(rng.Float64()*0.99 + 0.01)})
		}
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/mutate", bytes.NewReader(raw)))
		if w.Code != http.StatusOK {
			b.Fatalf("mutate: HTTP %d %s", w.Code, w.Body.Bytes())
		}
	}
	requery := func(wantMode string) {
		for _, q := range queries {
			if w := serveQuery(h, q); w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(wantMode)) {
				b.Fatalf("query %s: HTTP %d %s, want %s", q, w.Code, w.Body.Bytes(), wantMode)
			}
		}
	}
	requery(`"mode":"cold"`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		insert()
		b.StartTimer()
		requery(`"cached":false`)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(len(queries)*b.N), "ms/query")
}

var benchBody []byte

// BenchmarkEncodeResponse is the handler's encoder on the two answer
// shapes the perf probes time: ten top rows, and a thousand point values.
func BenchmarkEncodeResponse(b *testing.B) {
	res := newCachedResult(fillValues(1, 65536, fillNormal), 0, "cold", 65536, 0.25)
	g := testGraph(b)
	for _, c := range []struct {
		name string
		req  QueryRequest
	}{
		{"top10", QueryRequest{Graph: "g"}},
		{"values1000", QueryRequest{Graph: "g", Vertices: vertexRange(1000)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			resp := buildResponse(&c.req, g, "pr(alpha=0.85,threshold=0.0001)", res, true, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if benchBody, err = appendQueryResponse(benchBody[:0], resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
