package algorithms

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// testGraphs returns a suite of small graphs with varied shapes.
func testGraphs(t testing.TB) map[string]*graph.CSR {
	t.Helper()
	out := make(map[string]*graph.CSR)
	chain, err := gen.Chain(20, false)
	if err != nil {
		t.Fatal(err)
	}
	out["chain"] = chain
	star, err := gen.Star(30)
	if err != nil {
		t.Fatal(err)
	}
	out["star"] = star
	grid, err := gen.Grid2D(8, 8, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	out["grid"] = grid
	rmat, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 8,
		Weighted: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["rmat"] = rmat
	er, err := gen.ErdosRenyi(200, 1000, true, 77)
	if err != nil {
		t.Fatal(err)
	}
	out["er"] = er
	return out
}

func allAlgorithms() []Algorithm {
	return []Algorithm{
		NewPageRankDelta(),
		NewAdsorption(),
		NewSSSP(0),
		NewBFS(0),
		NewReach(0),
		NewConnectedComponents(),
		NewSSWP(0),
		NewReliablePath(0),
	}
}

func TestAlgebraicLaws(t *testing.T) {
	samples := []Value{0, 1, -1, 0.5, 3.25, 100, Infinity, math.Inf(-1), 7, -42}
	for _, alg := range allAlgorithms() {
		if err := CheckAlgebraicLaws(alg, samples); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestPropertyReduceLaws(t *testing.T) {
	for _, alg := range allAlgorithms() {
		alg := alg
		f := func(ai, bi, ci int32) bool {
			// Bound the domain to avoid float overflow artifacts; the
			// engines only ever see values of moderate magnitude.
			a := float64(ai) / 1024
			b := float64(bi) / 1024
			c := float64(ci) / 1024
			ab, ba := alg.Reduce(a, b), alg.Reduce(b, a)
			if ab != ba {
				return false
			}
			l := alg.Reduce(alg.Reduce(a, b), c)
			r := alg.Reduce(a, alg.Reduce(b, c))
			// Sum-based reduce is only associative up to FP rounding.
			tol := 1e-9 * math.Max(1, math.Max(math.Abs(l), math.Abs(r)))
			return math.Abs(l-r) <= tol
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestEdgeRecordBytes(t *testing.T) {
	if got := EdgeRecordBytes(NewBFS(0)); got != 4 {
		t.Errorf("BFS edge record = %d, want 4", got)
	}
	if got := EdgeRecordBytes(NewSSSP(0)); got != 8 {
		t.Errorf("SSSP edge record = %d, want 8", got)
	}
	if got := EdgeRecordBytes(NewAdsorption()); got != 8 {
		t.Errorf("Adsorption edge record = %d, want 8", got)
	}
}

func TestSolveSSSPMatchesDijkstra(t *testing.T) {
	for name, g := range testGraphs(t) {
		got := Solve(g, NewSSSP(0)).Values
		want := DijkstraSSSP(g, 0)
		for v := range want {
			if got[v] != want[v] && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
				if math.Abs(got[v]-want[v]) > 1e-9 {
					t.Errorf("%s: SSSP[%d] = %g, want %g", name, v, got[v], want[v])
					break
				}
			}
		}
	}
}

func TestSolveBFSMatchesQueueBFS(t *testing.T) {
	for name, g := range testGraphs(t) {
		got := Solve(g, NewBFS(0)).Values
		want := BFSLevels(g, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Errorf("%s: BFS[%d] = %g, want %g", name, v, got[v], want[v])
				break
			}
		}
	}
}

func TestSolveReachMatchesReachable(t *testing.T) {
	for name, g := range testGraphs(t) {
		got := Solve(g, NewReach(0)).Values
		want := Reachable(g, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Errorf("%s: Reach[%d] = %g, want %g", name, v, got[v], want[v])
				break
			}
		}
	}
}

func TestSolveCCMatchesFixedPoint(t *testing.T) {
	for name, g := range testGraphs(t) {
		got := Solve(g, NewConnectedComponents()).Values
		want := MaxLabelFixedPoint(g)
		for v := range want {
			if got[v] != want[v] {
				t.Errorf("%s: CC[%d] = %g, want %g", name, v, got[v], want[v])
				break
			}
		}
	}
}

func TestSolveSSWPMatchesWidestPath(t *testing.T) {
	for name, g := range testGraphs(t) {
		got := Solve(g, NewSSWP(0)).Values
		want := WidestPath(g, 0)
		for v := range want {
			if got[v] != want[v] && math.Abs(got[v]-want[v]) > 1e-9 {
				t.Errorf("%s: SSWP[%d] = %g, want %g", name, v, got[v], want[v])
				break
			}
		}
	}
}

func TestSolvePageRankMatchesPowerIteration(t *testing.T) {
	for name, g := range testGraphs(t) {
		pr := NewPageRankDelta()
		pr.Threshold = 1e-7
		got := Solve(g, pr).Values
		want := PageRankPower(g, pr.Alpha, 1e-12, 10_000)
		for v := range want {
			// The threshold drops deltas below 1e-7; accumulated error per
			// vertex stays within a small multiple of it.
			if math.Abs(got[v]-want[v]) > 1e-4 {
				t.Errorf("%s: PR[%d] = %g, want %g", name, v, got[v], want[v])
				break
			}
		}
	}
}

func TestSolveAdsorptionMatchesFixedPoint(t *testing.T) {
	for name, g := range testGraphs(t) {
		if !g.Weighted() {
			continue
		}
		ng := g.NormalizeInbound()
		ad := NewAdsorption()
		ad.Threshold = 1e-8
		got := Solve(ng, ad).Values
		want := AdsorptionFixedPoint(ng, ad, 1e-12, 10_000)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-4 {
				t.Errorf("%s: ADS[%d] = %g, want %g", name, v, got[v], want[v])
				break
			}
		}
	}
}

func TestPageRankSinkVertices(t *testing.T) {
	// A sink (out-degree 0) must not emit events; its rank is still valid.
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 2, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPageRankDelta()
	res := Solve(g, pr)
	// Vertex 2 receives α·0.15 from both sources.
	want := (1 - pr.Alpha) + 2*pr.Alpha*(1-pr.Alpha)
	if math.Abs(res.Values[2]-want) > 1e-9 {
		t.Errorf("sink rank = %g, want %g", res.Values[2], want)
	}
}

func TestSSSPUnreachableStaysInfinite(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	res := Solve(g, NewSSSP(0))
	if !math.IsInf(res.Values[2], 1) || !math.IsInf(res.Values[3], 1) {
		t.Errorf("unreachable distances = %v", res.Values)
	}
	if res.Values[1] != 2 {
		t.Errorf("dist[1] = %g, want 2", res.Values[1])
	}
}

func TestSSSPNonRootSource(t *testing.T) {
	g, err := gen.Grid2D(5, 5, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	root := graph.VertexID(12)
	got := Solve(g, NewSSSP(root)).Values
	want := DijkstraSSSP(g, root)
	for v := range want {
		if got[v] != want[v] && math.Abs(got[v]-want[v]) > 1e-9 {
			t.Errorf("SSSP from %d: [%d] = %g, want %g", root, v, got[v], want[v])
		}
	}
}

func TestCCOnDisconnectedGraph(t *testing.T) {
	// Two components: {0,1} and {2,3}, symmetric edges.
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 2, Weight: 1},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	got := Solve(g, NewConnectedComponents()).Values
	want := []Value{1, 1, 3, 3}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("CC[%d] = %g, want %g", v, got[v], want[v])
		}
	}
}

func TestInitialEventsShape(t *testing.T) {
	g, err := gen.Chain(10, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(NewPageRankDelta().InitialEvents(g)); got != 10 {
		t.Errorf("PR initial events = %d, want 10", got)
	}
	if got := len(NewSSSP(3).InitialEvents(g)); got != 1 {
		t.Errorf("SSSP initial events = %d, want 1", got)
	}
	ev := NewBFS(7).InitialEvents(g)
	if len(ev) != 1 || ev[0].Vertex != 7 || ev[0].Delta != 0 {
		t.Errorf("BFS initial events = %+v", ev)
	}
}

func TestNormalizeInbound(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 400, true, 123)
	if err != nil {
		t.Fatal(err)
	}
	ng := g.NormalizeInbound()
	sums := make([]float64, ng.NumVertices())
	for i, d := range ng.Dst {
		sums[d] += float64(ng.Weight[i])
	}
	in := make([]int, g.NumVertices())
	for _, d := range g.Dst {
		in[d]++
	}
	for v, s := range sums {
		if in[v] == 0 {
			continue
		}
		if math.Abs(s-1) > 1e-5 {
			t.Errorf("inbound weight sum of %d = %g, want 1", v, s)
		}
	}
}

// TestPropertySolveOrderInvariance: coalescing and processing order must not
// change the fixed point. We run Solve on randomly relabeled copies of the
// same graph and map results back.
func TestPropertySolveOrderInvariance(t *testing.T) {
	base, err := gen.ErdosRenyi(60, 240, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	baseDist := Solve(base, NewSSSP(0)).Values
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := base.NumVertices()
		perm := make([]graph.VertexID, n)
		for i, p := range rng.Perm(n) {
			perm[i] = graph.VertexID(p)
		}
		rg, err := base.Relabel(perm)
		if err != nil {
			return false
		}
		got := Solve(rg, NewSSSP(perm[0])).Values
		for v := 0; v < n; v++ {
			a, b := baseDist[v], got[perm[v]]
			if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) {
				continue
			}
			if math.Abs(a-b) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSolveActivationCounters(t *testing.T) {
	g, err := gen.Chain(5, false)
	if err != nil {
		t.Fatal(err)
	}
	res := Solve(g, NewBFS(0))
	// Each vertex activates exactly once on a chain; 4 edges emit once each.
	if res.Activations != 5 {
		t.Errorf("Activations = %d, want 5", res.Activations)
	}
	if res.Emitted != 4 {
		t.Errorf("Emitted = %d, want 4", res.Emitted)
	}
}

func TestSolveReliablePathMatchesOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		if !g.Weighted() {
			continue
		}
		got := Solve(g, NewReliablePath(0)).Values
		want := MostReliablePath(g, 0)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Errorf("%s: reliability[%d] = %g, want %g", name, v, got[v], want[v])
				break
			}
		}
	}
}

func TestReliablePathLaws(t *testing.T) {
	if err := CheckAlgebraicLaws(NewReliablePath(0), []Value{0, 0.25, 0.5, 1}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalReliablePath(t *testing.T) {
	g, err := gen.Grid2D(6, 6, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	cold := Solve(g, NewReliablePath(0))
	added := []graph.Edge{{Src: 0, Dst: 35, Weight: 0.99}}
	newG, warm, err := IncrementalAfterInsert(NewReliablePath(0), g, added, cold.Values)
	if err != nil {
		t.Fatal(err)
	}
	incr := Solve(newG, warm)
	want := Solve(newG, NewReliablePath(0))
	for v := range want.Values {
		if math.Abs(incr.Values[v]-want.Values[v]) > 1e-12 {
			t.Fatalf("vertex %d: %g vs %g", v, incr.Values[v], want.Values[v])
		}
	}
}

// TestSolveDispatch: every algorithm of the ByName table gets a kernel,
// bare and behind a warm start (nested or not); an algorithm outside the
// table gets none and runs the reference loop.
func TestSolveDispatch(t *testing.T) {
	g, err := gen.Chain(8, true)
	if err != nil {
		t.Fatal(err)
	}
	type other struct{ Algorithm }
	runs := func(alg Algorithm) bool {
		_, ok := kernelFor(alg)
		return ok
	}
	for _, name := range Names() {
		alg, err := ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		state := Solve(g, alg).Values
		warm := WarmStart(alg, state, nil)
		for _, a := range []Algorithm{alg, warm, WarmStart(warm, state, nil)} {
			if !runs(a) {
				t.Errorf("%s (%T): solved by the reference loop", name, a)
			}
		}
		if runs(other{alg}) {
			t.Errorf("%s: an algorithm outside the table got a kernel", name)
		}
	}
}
