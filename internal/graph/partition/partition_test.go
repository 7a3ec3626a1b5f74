package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

func TestSingleSlice(t *testing.T) {
	g, err := gen.Chain(100, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Contiguous(g, 1000, 2)
	if err != nil {
		t.Fatalf("Contiguous: %v", err)
	}
	if p.NumSlices() != 1 {
		t.Fatalf("NumSlices = %d, want 1", p.NumSlices())
	}
	if p.CutEdges != 0 {
		t.Errorf("CutEdges = %d, want 0", p.CutEdges)
	}
	if p.Slices[0].Lo != 0 || p.Slices[0].Hi != 100 {
		t.Errorf("slice = %+v", p.Slices[0])
	}
}

func TestSliceBoundRespected(t *testing.T) {
	g, err := gen.ErdosRenyi(1000, 5000, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int{100, 333, 999, 1000} {
		p, err := Contiguous(g, bound, 3)
		if err != nil {
			t.Fatalf("Contiguous(%d): %v", bound, err)
		}
		for i, s := range p.Slices {
			if s.NumVertices() > bound {
				t.Errorf("bound %d: slice %d has %d vertices", bound, i, s.NumVertices())
			}
		}
	}
}

func TestSlicesCoverAllVerticesExactlyOnce(t *testing.T) {
	g, err := gen.ErdosRenyi(777, 3000, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Contiguous(g, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int, g.NumVertices())
	for _, s := range p.Slices {
		for v := s.Lo; v < s.Hi; v++ {
			covered[v]++
		}
	}
	for v, c := range covered {
		if c != 1 {
			t.Fatalf("vertex %d covered %d times", v, c)
		}
	}
}

func TestSliceOf(t *testing.T) {
	g, err := gen.Chain(100, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Contiguous(g, 34, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 100; v++ {
		idx := p.SliceOf(graph.VertexID(v))
		if idx < 0 || graph.VertexID(v) < p.Slices[idx].Lo || graph.VertexID(v) >= p.Slices[idx].Hi {
			t.Fatalf("SliceOf(%d) = %d, slice %+v", v, idx, p.Slices[idx])
		}
	}
}

func TestChainCutIsSliceCountMinusOne(t *testing.T) {
	// A chain cut into k contiguous slices severs exactly k-1 edges, no
	// matter where the boundaries land: the minimal possible cut.
	g, err := gen.Chain(1000, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Contiguous(g, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.NumSlices() - 1; p.CutEdges != want {
		t.Errorf("CutEdges = %d, want %d", p.CutEdges, want)
	}
}

func TestRefinementDoesNotIncreaseCut(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	p0, err := Contiguous(g, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Contiguous(g, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p3.CutEdges > p0.CutEdges {
		t.Errorf("refinement increased cut: %d -> %d", p0.CutEdges, p3.CutEdges)
	}
}

func TestContiguousRejectsBadBound(t *testing.T) {
	g, _ := gen.Chain(10, false)
	if _, err := Contiguous(g, 0, 0); err == nil {
		t.Error("Contiguous accepted maxVertices=0")
	}
	if _, err := Contiguous(g, -5, 0); err == nil {
		t.Error("Contiguous accepted negative bound")
	}
}

func TestEmptyGraphPartition(t *testing.T) {
	g, err := graph.FromEdges(0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Contiguous(g, 10, 1)
	if err != nil {
		t.Fatalf("Contiguous: %v", err)
	}
	if p.NumSlices() != 0 {
		t.Errorf("NumSlices = %d, want 0", p.NumSlices())
	}
}

func TestDegreeOrderPermutationIsPermutation(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 6, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	perm := DegreeOrderPermutation(g)
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if int(p) >= len(perm) || seen[p] {
			t.Fatalf("not a permutation: %d repeated or out of range", p)
		}
		seen[p] = true
	}
}

func TestDegreeOrderReducesCutOnClusteredGraph(t *testing.T) {
	// Build a graph of two dense communities whose vertex ids interleave;
	// a contiguous split on raw ids cuts half the edges, while the BFS
	// relabeling should group each community and shrink the cut.
	rng := rand.New(rand.NewSource(42))
	const n = 400
	var edges []graph.Edge
	for i := 0; i < 4000; i++ {
		comm := rng.Intn(2)
		// Community members are ids with matching parity: interleaved.
		u := graph.VertexID(rng.Intn(n/2)*2 + comm)
		v := graph.VertexID(rng.Intn(n/2)*2 + comm)
		edges = append(edges, graph.Edge{Src: u, Dst: v, Weight: 1})
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Contiguous(g, n/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	perm := DegreeOrderPermutation(g)
	rg, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Contiguous(rg, n/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after.CutEdges >= before.CutEdges {
		t.Errorf("BFS relabel did not reduce cut: before=%d after=%d", before.CutEdges, after.CutEdges)
	}
}

// TestPropertySlicesPartition checks on random graphs that Contiguous always
// yields a cover of disjoint contiguous slices within the bound.
func TestPropertySlicesPartition(t *testing.T) {
	f := func(seed int64, nRaw uint8, boundRaw uint8) bool {
		n := int(nRaw)%200 + 1
		bound := int(boundRaw)%n + 1
		g, err := gen.ErdosRenyi(n, n*4, false, seed)
		if err != nil {
			return false
		}
		p, err := Contiguous(g, bound, 2)
		if err != nil {
			return false
		}
		prev := graph.VertexID(0)
		for _, s := range p.Slices {
			if s.Lo != prev || s.Hi < s.Lo || s.NumVertices() > bound {
				return false
			}
			prev = s.Hi
		}
		return int(prev) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSplitRejectsBadParts(t *testing.T) {
	g, _ := gen.Chain(10, false)
	if _, err := Split(g, 0, 0); err == nil {
		t.Error("Split accepted parts=0")
	}
	if _, err := Split(g, -3, 0); err == nil {
		t.Error("Split accepted negative parts")
	}
}

func TestSplitEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Split(g, 8, 1)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if p.NumSlices() != 0 || p.CutEdges != 0 {
		t.Errorf("empty graph: slices=%d cut=%d, want 0/0", p.NumSlices(), p.CutEdges)
	}
}

func TestSplitSingleVertex(t *testing.T) {
	g, err := graph.FromEdges(1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 16} {
		p, err := Split(g, parts, 1)
		if err != nil {
			t.Fatalf("Split(parts=%d): %v", parts, err)
		}
		if p.NumSlices() != 1 {
			t.Fatalf("parts=%d: NumSlices = %d, want 1", parts, p.NumSlices())
		}
		if s := p.Slices[0]; s.Lo != 0 || s.Hi != 1 {
			t.Errorf("parts=%d: slice = %+v, want [0,1)", parts, s)
		}
		if got := p.SliceOf(0); got != 0 {
			t.Errorf("parts=%d: SliceOf(0) = %d, want 0", parts, got)
		}
	}
}

func TestSplitMorePartsThanVertices(t *testing.T) {
	// parts clamps to the vertex count: every slice holds exactly one vertex
	// and the cover is still exact.
	g, err := gen.Chain(5, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Split(g, 64, 1)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if p.NumSlices() != 5 {
		t.Fatalf("NumSlices = %d, want 5", p.NumSlices())
	}
	for i, s := range p.Slices {
		if s.NumVertices() != 1 || s.Lo != graph.VertexID(i) {
			t.Errorf("slice %d = %+v, want single vertex %d", i, s, i)
		}
	}
	// A chain split into n singleton slices cuts every edge.
	if p.CutEdges != 4 {
		t.Errorf("CutEdges = %d, want 4", p.CutEdges)
	}
}

func TestSplitIsolatedVerticesOnly(t *testing.T) {
	// A graph with vertices but no edges: any split is valid with zero cut,
	// and refinement must not move boundaries below/above neighbors.
	g, err := graph.FromEdges(12, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 3, 5, 12} {
		p, err := Split(g, parts, 2)
		if err != nil {
			t.Fatalf("Split(parts=%d): %v", parts, err)
		}
		if p.NumSlices() == 0 || p.NumSlices() > parts {
			t.Fatalf("parts=%d: NumSlices = %d", parts, p.NumSlices())
		}
		if p.CutEdges != 0 {
			t.Errorf("parts=%d: CutEdges = %d, want 0", parts, p.CutEdges)
		}
		prev := graph.VertexID(0)
		for _, s := range p.Slices {
			if s.Lo != prev || s.Hi < s.Lo {
				t.Fatalf("parts=%d: non-contiguous slice %+v after %d", parts, s, prev)
			}
			prev = s.Hi
		}
		if int(prev) != 12 {
			t.Fatalf("parts=%d: cover ends at %d, want 12", parts, prev)
		}
	}
}

func TestSplitSliceCountNeverExceedsParts(t *testing.T) {
	f := func(seed int64, nRaw uint8, partsRaw uint8) bool {
		n := int(nRaw)%150 + 1
		parts := int(partsRaw)%20 + 1
		g, err := gen.ErdosRenyi(n, n*3, false, seed)
		if err != nil {
			return false
		}
		p, err := Split(g, parts, 1)
		if err != nil {
			return false
		}
		want := parts
		if n < parts {
			want = n
		}
		return p.NumSlices() <= want && p.NumSlices() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
