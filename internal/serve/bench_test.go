package serve

import (
	"fmt"
	"testing"
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
// at n = 65,536. Ascending input replaces the heap root on every element —
// the selection's worst case.
func BenchmarkSummarize(b *testing.B) {
	const n = 65536
	for _, in := range summaryInputs {
		switch in.name {
		case "random", "ascending", "allfinite-ties":
		default:
			continue
		}
		b.Run(in.name, func(b *testing.B) {
			values := fillValues(1, n, in.fill)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchResult = newCachedResult(values, 0, "cold", 0, 0)
			}
		})
	}
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
