package psolve_test

import (
	"fmt"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/psolve"
)

// BenchmarkPSolve times one solve of the parallel-solve workload's set
// {pr, sssp, cc} on the WG-shape mini graph (65,536 vertices, about 390k
// weighted edges) at one worker, which is the serial solver, and at two.
// ns/edge is elapsed time per emitted edge delta, comparable with
// algorithms' BenchmarkSolve; allocs/op is per solve; deltas/op is the
// cross-shard deltas one solve exchanges.
func BenchmarkPSolve(b *testing.B) {
	spec, err := gen.DatasetByAbbrev("WG")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(gen.Mini)
	if err != nil {
		b.Fatal(err)
	}
	root := graph.BestRoot(g)
	for _, workers := range []int{1, 2} {
		for _, name := range []string{"pr", "sssp", "cc"} {
			alg, err := algorithms.ByName(name, root)
			if err != nil {
				b.Fatal(err)
			}
			cfg := psolve.Config{Workers: workers}
			b.Run(fmt.Sprintf("w%d/%s", workers, name), func(b *testing.B) {
				b.ReportAllocs()
				var emitted, deltas int64
				for i := 0; i < b.N; i++ {
					res, _ := psolve.SolveCtx(nil, g, alg, cfg)
					emitted += res.Emitted
					deltas += res.CrossShardDeltas
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emitted), "ns/edge")
				b.ReportMetric(float64(deltas)/float64(b.N), "deltas/op")
			})
		}
	}
}
