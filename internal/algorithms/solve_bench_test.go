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
// (stream.Graph), so the row cost of a mutated graph has its own number.
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

// BenchmarkSolveChain stresses the ring's wraparound: a long chain with a
// rooted algorithm activates vertices in strict sequence, lapping the ring
// once per wavefront hop.
func BenchmarkSolveChain(b *testing.B) {
	g, err := gen.Chain(1<<12, true)
	if err != nil {
		b.Fatal(err)
	}
	alg := algorithms.NewSSSP(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := algorithms.Solve(g, alg)
		if res.Activations == 0 {
			b.Fatal("solve performed no activations")
		}
	}
}
