package algorithms_test

import (
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
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
// <name>/reference, through the interface loop. ns/edge is elapsed time
// per emitted edge delta, the unit of the solver's target (at most 2x a
// plain CSR row scan); allocs/op is per solve and must not depend on how
// many activations the solve performs.
func BenchmarkSolve(b *testing.B) {
	g := wgMini(b)
	normalized := g.NormalizeInbound() // adsorption converges only on inbound-normalized weights
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
	}
}

func benchSolve(b *testing.B, g *graph.CSR, alg algorithms.Algorithm) {
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
