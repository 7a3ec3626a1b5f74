package algorithms_test

import (
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/stream"
)

// wgMini is the cold-query workload's graph shape: the Web-Google stand-in
// at the mini tier (65,536 vertices, about 390k weighted edges).
func wgMini(b *testing.B) *graph.CSR {
	b.Helper()
	spec, err := gen.DatasetByAbbrev("WG")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(gen.Mini)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSolve times one serial solve of every algorithm on a WG-shape
// mini graph, once through the kernel loop and once, as
// <name>/reference, through the interface loop; pr and sssp also run, as
// <name>/paged, on the paged epoch a one-edge insert makes of that graph
// (stream.Graph), so the row cost of a mutated graph has its own number,
// and, as <name>/warm0, as a warm start from their own fixed point with no
// seeds: no activation, only the fixed cost every warm re-query pays.
// ns/edge is elapsed time per emitted edge delta, the unit of the solver's
// target (at most 2x a plain CSR row scan); allocs/op is per solve and
// must not depend on how many activations the solve performs.
func BenchmarkSolve(b *testing.B) {
	g := wgMini(b)
	normalized := g.NormalizeInbound() // adsorption converges only on inbound-normalized weights
	sg := stream.NewGraph(g, 1)
	if _, _, _, err := sg.Apply([]graph.Edge{{Src: 1, Dst: 2, Weight: 1}}, nil); err != nil {
		b.Fatal(err)
	}
	paged := sg.Adjacency()
	for _, name := range algorithms.Names() {
		alg, err := algorithms.ByName(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		on := g
		if name == "ads" {
			on = normalized
		}
		b.Run(name, func(b *testing.B) { benchSolve(b, on, alg) })
		b.Run(name+"/reference", func(b *testing.B) { benchSolve(b, on, opaque{alg}) })
		if name == "pr" || name == "sssp" {
			b.Run(name+"/paged", func(b *testing.B) { benchSolve(b, paged, alg) })
			b.Run(name+"/warm0", func(b *testing.B) { benchWarm0(b, g, alg) })
		}
	}
}

func benchSolve(b *testing.B, g graph.Adjacency, alg algorithms.Algorithm) {
	b.ReportAllocs()
	var emitted int64
	for i := 0; i < b.N; i++ {
		res := algorithms.Solve(g, alg)
		if res.Activations == 0 {
			b.Fatal("solve performed no activations")
		}
		emitted += res.Emitted
	}
	if emitted > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emitted), "ns/edge")
	}
}

func benchWarm0(b *testing.B, g graph.Adjacency, alg algorithms.Algorithm) {
	warm := algorithms.WarmStart(alg, algorithms.Solve(g, alg).Values, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := algorithms.Solve(g, warm); res.Activations != 0 {
			b.Fatalf("a seedless warm start performed %d activations", res.Activations)
		}
	}
}

// BenchmarkSolveSparse times the rooted solves whose worklist rounds are
// sparse: bfs and sssp on a 65,536-vertex chain and a 256x256 grid, where
// a round pops a few scattered vertices of a wavefront. ns/edge is as in
// BenchmarkSolve, so it compares with the WG-shape solves directly.
func BenchmarkSolveSparse(b *testing.B) {
	chain, err := gen.Chain(1<<16, true)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := gen.Grid2D(256, 256, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{{"chain", chain}, {"grid", grid}} {
		for _, name := range []string{"bfs", "sssp"} {
			alg, err := algorithms.ByName(name, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(c.name+"/"+name, func(b *testing.B) { benchSolve(b, c.g, alg) })
		}
	}
}
