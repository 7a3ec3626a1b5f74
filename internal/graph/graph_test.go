package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// smallGraph is the 5-vertex example from Figure 1 of the paper:
// edges (1,2),(2,3),(2,5),(3,4),(4,1),(4,2),(5,3),(1,3),(4,5) with ids
// shifted to 0-based.
func smallGraph(t testing.TB) *CSR {
	t.Helper()
	edges := []Edge{
		{0, 1, 1}, {1, 2, 1}, {1, 4, 1}, {2, 3, 1}, {3, 0, 1},
		{3, 1, 1}, {4, 2, 1}, {0, 2, 1}, {3, 4, 1},
	}
	g, err := FromEdges(5, edges, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := smallGraph(t)
	if got, want := g.NumVertices(), 5; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 9; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if got, want := g.OutDegree(3), 3; got != want {
		t.Errorf("OutDegree(3) = %d, want %d", got, want)
	}
	if got, want := g.OutDegree(2), 1; got != want {
		t.Errorf("OutDegree(2) = %d, want %d", got, want)
	}
	wantN := map[VertexID][]VertexID{
		0: {1, 2},
		1: {2, 4},
		2: {3},
		3: {0, 1, 4},
		4: {2},
	}
	for v, want := range wantN {
		if got := g.Neighbors(v); !reflect.DeepEqual(got, want) {
			t.Errorf("Neighbors(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5, 1}}, false); err == nil {
		t.Error("FromEdges accepted out-of-range destination")
	}
	if _, err := FromEdges(-1, nil, false); err == nil {
		t.Error("FromEdges accepted negative vertex count")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	tr := g.Transpose()
	if tr.NumVertices() != 0 {
		t.Errorf("transpose of empty graph has %d vertices", tr.NumVertices())
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := FromEdges(10, []Edge{{2, 7, 1}}, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if got := g.NumVertices(); got != 10 {
		t.Errorf("NumVertices = %d, want 10", got)
	}
	for v := 0; v < 10; v++ {
		want := 0
		if v == 2 {
			want = 1
		}
		if got := g.OutDegree(VertexID(v)); got != want {
			t.Errorf("OutDegree(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestWeightedEdges(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 0.5}, {1, 2, 2.5}}, true)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("Weighted() = false")
	}
	if got := g.EdgeWeight(g.RowPtr[1]); got != 2.5 {
		t.Errorf("weight of edge 1→2 = %g, want 2.5", got)
	}
	if w := g.NeighborWeights(0); len(w) != 1 || w[0] != 0.5 {
		t.Errorf("NeighborWeights(0) = %v", w)
	}
	if dst, w := g.Row(1); !reflect.DeepEqual(dst, []VertexID{2}) || !reflect.DeepEqual(w, []float32{2.5}) {
		t.Errorf("Row(1) = %v, %v", dst, w)
	}
}

func TestUnweightedWeightIsOne(t *testing.T) {
	g := smallGraph(t)
	if g.Weighted() {
		t.Fatal("unweighted graph reports Weighted")
	}
	if got := g.EdgeWeight(0); got != 1 {
		t.Errorf("EdgeWeight = %g, want 1", got)
	}
	if g.NeighborWeights(0) != nil {
		t.Error("NeighborWeights should be nil for unweighted graph")
	}
	if dst, w := g.Row(0); !reflect.DeepEqual(dst, g.Neighbors(0)) || w != nil {
		t.Errorf("Row(0) = %v, %v, want Neighbors(0) and nil weights", dst, w)
	}
}

func TestTranspose(t *testing.T) {
	g := smallGraph(t)
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose Validate: %v", err)
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edges = %d, want %d", tr.NumEdges(), g.NumEdges())
	}
	// Every edge u→v in g must appear as v→u in tr.
	count := func(h *CSR, s, d VertexID) int {
		c := 0
		for _, x := range h.Neighbors(s) {
			if x == d {
				c++
			}
		}
		return c
	}
	for _, e := range g.Edges() {
		if count(tr, e.Dst, e.Src) != count(g, e.Src, e.Dst) {
			t.Errorf("edge %d→%d not mirrored in transpose", e.Src, e.Dst)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := smallGraph(t).SortNeighbors()
	back := g.Transpose().Transpose().SortNeighbors()
	if !reflect.DeepEqual(g.RowPtr, back.RowPtr) {
		t.Errorf("double transpose changed RowPtr")
	}
	if !reflect.DeepEqual(g.Dst, back.Dst) {
		t.Errorf("double transpose changed Dst:\n got %v\nwant %v", back.Dst, g.Dst)
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := smallGraph(t)
	perm := make([]VertexID, g.NumVertices())
	for i := range perm {
		perm[i] = VertexID(i)
	}
	h, err := g.Relabel(perm)
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	if !reflect.DeepEqual(g.RowPtr, h.RowPtr) || !reflect.DeepEqual(g.Dst, h.Dst) {
		t.Error("identity relabel changed the graph")
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := smallGraph(t)
	perm := []VertexID{4, 3, 2, 1, 0}
	h, err := g.Relabel(perm)
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("relabel edges = %d, want %d", h.NumEdges(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got, want := h.OutDegree(perm[v]), g.OutDegree(VertexID(v)); got != want {
			t.Errorf("degree of relabeled %d = %d, want %d", v, got, want)
		}
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := smallGraph(t)
	if _, err := g.Relabel([]VertexID{0, 0, 1, 2, 3}); err == nil {
		t.Error("Relabel accepted duplicate permutation entries")
	}
	if _, err := g.Relabel([]VertexID{0, 1}); err == nil {
		t.Error("Relabel accepted short permutation")
	}
}

// TestInDegrees reads each vertex's in-degree as its out-degree in the
// transpose.
func TestInDegrees(t *testing.T) {
	g := smallGraph(t).Transpose()
	var in []int
	for v := 0; v < g.NumVertices(); v++ {
		in = append(in, g.OutDegree(VertexID(v)))
	}
	want := []int{1, 2, 3, 1, 2}
	if !reflect.DeepEqual(in, want) {
		t.Errorf("in-degrees = %v, want %v", in, want)
	}
}

func TestSortNeighbors(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 3, 3}, {0, 1, 1}, {0, 2, 2}}, true)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	s := g.SortNeighbors()
	if got := s.Neighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2, 3}) {
		t.Errorf("sorted neighbors = %v", got)
	}
	if got := s.NeighborWeights(0); !reflect.DeepEqual(got, []float32{1, 2, 3}) {
		t.Errorf("weights did not follow their edges: %v", got)
	}
	// Original untouched.
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []VertexID{3, 1, 2}) {
		t.Errorf("SortNeighbors mutated receiver: %v", got)
	}
}

// TestBestRoot pins the root rule every rooted run shares: the maximum
// out-degree, the lowest id among ties, vertex 0 on an edgeless graph.
func TestBestRoot(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		want  VertexID
	}{
		{"edgeless", 4, nil, 0},
		{"unique max", 4, []Edge{{1, 0, 1}, {2, 0, 1}, {2, 1, 1}}, 2},
		{"tie takes lowest id", 5, []Edge{{3, 0, 1}, {3, 1, 1}, {1, 2, 1}, {1, 3, 1}, {4, 0, 1}}, 1},
	}
	for _, c := range cases {
		g, err := FromEdges(c.n, c.edges, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := BestRoot(g); got != c.want {
			t.Errorf("%s: BestRoot = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := smallGraph(t)
	s := ComputeStats(g)
	if s.Vertices != 5 || s.Edges != 9 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxOutDegree != 3 {
		t.Errorf("MaxOutDegree = %d, want 3", s.MaxOutDegree)
	}
	if s.ZeroOutDegree != 0 {
		t.Errorf("ZeroOutDegree = %d, want 0", s.ZeroOutDegree)
	}
	if s.AvgOutDegree != 9.0/5.0 {
		t.Errorf("AvgOutDegree = %g", s.AvgOutDegree)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := smallGraph(t)
	bad := &CSR{RowPtr: append([]uint64(nil), g.RowPtr...), Dst: append([]VertexID(nil), g.Dst...)}
	bad.RowPtr[2] = bad.RowPtr[3] + 5
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted non-monotone RowPtr")
	}
	bad2 := &CSR{RowPtr: append([]uint64(nil), g.RowPtr...), Dst: append([]VertexID(nil), g.Dst...)}
	bad2.Dst[0] = 99
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted out-of-range destination")
	}
	bad3 := &CSR{RowPtr: []uint64{1, 2}, Dst: []VertexID{0}}
	if err := bad3.Validate(); err == nil {
		t.Error("Validate accepted RowPtr[0] != 0")
	}
}

// randomEdges generates a reproducible random edge list for property tests.
func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			Src:    VertexID(rng.Intn(n)),
			Dst:    VertexID(rng.Intn(n)),
			Weight: float32(rng.Float64()),
		}
	}
	return edges
}

// TestPropertyEdgesRoundTrip checks FromEdges ∘ Edges preserves the multiset
// of edges for arbitrary random graphs.
func TestPropertyEdgesRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%64 + 1
		m := int(mRaw) % 512
		rng := rand.New(rand.NewSource(seed))
		edges := randomEdges(rng, n, m)
		g, err := FromEdges(n, edges, true)
		if err != nil {
			return false
		}
		back, err := FromEdges(n, g.Edges(), true)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g.RowPtr, back.RowPtr) &&
			reflect.DeepEqual(g.Dst, back.Dst) &&
			reflect.DeepEqual(g.Weight, back.Weight)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTransposePreservesDegreesums checks sum of out-degrees equals
// sum of in-degrees after transpose, and double transpose is identity on the
// degree sequence.
func TestPropertyTransposeDegrees(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%64 + 1
		m := int(mRaw) % 512
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEdges(n, randomEdges(rng, n, m), false)
		if err != nil {
			return false
		}
		tr := g.Transpose()
		if tr.NumEdges() != g.NumEdges() {
			return false
		}
		in := make([]int, n)
		for _, d := range g.Dst {
			in[d]++
		}
		for v := 0; v < n; v++ {
			if tr.OutDegree(VertexID(v)) != in[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyValidateAlwaysPassesForBuilder checks every graph built by
// FromEdges validates.
func TestPropertyValidateAlwaysPassesForBuilder(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%128 + 1
		m := int(mRaw) % 1024
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEdges(n, randomEdges(rng, n, m), seed%2 == 0)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
