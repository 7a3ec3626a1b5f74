package algorithms

import (
	"math"
	"math/rand"
	"testing"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// insertAndCompare converges alg on a base graph, applies incremental
// insertion, and checks the warm-started fixed point equals a cold start on
// the updated graph.
func insertAndCompare(t *testing.T, mk func() Algorithm, tol float64) {
	t.Helper()
	base, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 6,
		Weighted: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := Solve(base, mk())

	rng := rand.New(rand.NewSource(3))
	n := base.NumVertices()
	var added []graph.Edge
	for i := 0; i < 200; i++ {
		added = append(added, graph.Edge{
			Src:    graph.VertexID(rng.Intn(n)),
			Dst:    graph.VertexID(rng.Intn(n)),
			Weight: float32(rng.Float64()*0.9 + 0.1),
		})
	}
	newG, warm, err := IncrementalAfterInsert(mk(), base, added, cold.Values)
	if err != nil {
		t.Fatal(err)
	}
	incr := Solve(newG, warm)
	want := Solve(newG, mk())
	bad := 0
	for v := range want.Values {
		a, b := incr.Values[v], want.Values[v]
		if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) || (math.IsInf(a, -1) && math.IsInf(b, -1)) {
			continue
		}
		t2 := tol * math.Max(1, math.Abs(b))
		if math.Abs(a-b) > t2 {
			bad++
			if bad <= 3 {
				t.Errorf("%s: vertex %d incremental %g, cold %g", mk().Name(), v, a, b)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d/%d mismatches after incremental insert", mk().Name(), bad, n)
	}
	// The incremental run must do (much) less work than the cold start.
	if incr.Activations >= want.Activations {
		t.Errorf("%s: incremental activations %d not below cold %d",
			mk().Name(), incr.Activations, want.Activations)
	}
}

func TestIncrementalSSSP(t *testing.T) {
	insertAndCompare(t, func() Algorithm { return NewSSSP(0) }, 1e-9)
}

func TestIncrementalBFS(t *testing.T) {
	insertAndCompare(t, func() Algorithm { return NewBFS(0) }, 0)
}

func TestIncrementalReach(t *testing.T) {
	insertAndCompare(t, func() Algorithm { return NewReach(0) }, 0)
}

func TestIncrementalSSWP(t *testing.T) {
	insertAndCompare(t, func() Algorithm { return NewSSWP(0) }, 1e-9)
}

func TestIncrementalCC(t *testing.T) {
	insertAndCompare(t, func() Algorithm { return NewConnectedComponents() }, 0)
}

func TestIncrementalPageRank(t *testing.T) {
	// PR's thresholded residue makes it approximate; compare at a loose
	// relative tolerance after tightening the threshold.
	insertAndCompare(t, func() Algorithm {
		pr := NewPageRankDelta()
		pr.Threshold = 1e-7
		return pr
	}, 2e-3)
}

func TestIncrementalEdgeToUnreachedRegion(t *testing.T) {
	// New edge from an UNREACHED source must carry nothing (identity state).
	g, err := gen.Chain(10, false)
	if err != nil {
		t.Fatal(err)
	}
	cold := Solve(g, NewBFS(5)) // vertices 0..4 unreached
	added := []graph.Edge{{Src: 2, Dst: 9, Weight: 1}}
	newG, warm, err := IncrementalAfterInsert(NewBFS(5), g, added, cold.Values)
	if err != nil {
		t.Fatal(err)
	}
	incr := Solve(newG, warm)
	want := Solve(newG, NewBFS(5))
	for v := range want.Values {
		a, b := incr.Values[v], want.Values[v]
		if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
			t.Errorf("vertex %d: %g vs %g", v, a, b)
		}
	}
}

func TestIncrementalBridgingEdge(t *testing.T) {
	// Connect two chains with a new edge: the second chain must be swept by
	// the cascade.
	edges := []graph.Edge{}
	for v := 0; v < 9; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), Weight: 1})
	}
	for v := 10; v < 19; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), Weight: 1})
	}
	g, err := graph.FromEdges(20, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	cold := Solve(g, NewSSSP(0))
	if !math.IsInf(cold.Values[15], 1) {
		t.Fatal("second chain unexpectedly reachable")
	}
	added := []graph.Edge{{Src: 4, Dst: 10, Weight: 0.5}}
	newG, warm, err := IncrementalAfterInsert(NewSSSP(0), g, added, cold.Values)
	if err != nil {
		t.Fatal(err)
	}
	incr := Solve(newG, warm)
	if got, want := incr.Values[15], 4+0.5+5.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("dist[15] = %g, want %g", got, want)
	}
}

func TestIncrementalRejectsUnsupported(t *testing.T) {
	g, _ := gen.Chain(5, false)
	if _, _, err := IncrementalAfterInsert(NewAdsorption(), g, nil, make([]Value, 5)); err == nil {
		t.Error("adsorption (no seeder) accepted")
	}
	if _, _, err := IncrementalAfterInsert(NewBFS(0), g, nil, make([]Value, 3)); err == nil {
		t.Error("wrong state length accepted")
	}
}

func TestWarmStartPreservesProgressor(t *testing.T) {
	pr := NewPageRankDelta()
	w := WarmStart(pr, make([]Value, 4), nil)
	p, ok := w.(Progressor)
	if !ok {
		t.Fatal("warm-started PR lost Progressor")
	}
	if p.Progress(1, 3) != 2 {
		t.Error("Progress not delegated")
	}
	b := WarmStart(NewBFS(0), make([]Value, 4), nil)
	if _, ok := b.(Progressor); ok {
		t.Error("warm-started BFS gained Progressor")
	}
}

// TestPageRankWarmStartRepeatable: the warm start's correction seeds come
// in a fixed order, so repeating one insert-and-resolve gives the same
// fixed point to the last bit.
func TestPageRankWarmStartRepeatable(t *testing.T) {
	base, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 6,
		Weighted: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := Solve(base, NewPageRankDelta())
	rng := rand.New(rand.NewSource(5))
	n := base.NumVertices()
	var added []graph.Edge
	for i := 0; i < 200; i++ {
		added = append(added, graph.Edge{
			Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: 1,
		})
	}
	var first []Value
	for run := 0; run < 10; run++ {
		newG, warm, err := IncrementalAfterInsert(NewPageRankDelta(), base, added, cold.Values)
		if err != nil {
			t.Fatal(err)
		}
		got := Solve(newG, warm).Values
		if run == 0 {
			first = got
			continue
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(first[v]) {
				t.Fatalf("run %d: vertex %d = %v, run 0 gave %v", run, v, got[v], first[v])
			}
		}
	}
}
