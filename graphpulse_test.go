package graphpulse_test

import (
	"bytes"
	"math"
	"testing"

	"graphpulse"
)

func TestFacadeQuickstart(t *testing.T) {
	g, err := graphpulse.GenerateRMAT(graphpulse.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 8,
		Weighted: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := graphpulse.Run(graphpulse.OptimizedConfig(), g, graphpulse.NewPageRankDelta())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || len(res.Values) != g.NumVertices() {
		t.Fatalf("bad result: cycles=%d values=%d", res.Cycles, len(res.Values))
	}
	// Cross-check against the reference solver.
	// Asynchronous scheduling drops different sub-threshold residue than
	// the reference worklist, so compare with a relative tolerance.
	want := graphpulse.Solve(g, graphpulse.NewPageRankDelta())
	for v := range want.Values {
		tol := 5e-3 * math.Max(1, math.Abs(want.Values[v]))
		if math.Abs(res.Values[v]-want.Values[v]) > tol {
			t.Fatalf("vertex %d: %g vs reference %g", v, res.Values[v], want.Values[v])
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	g, err := graphpulse.GenerateGrid(16, 16, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	alg := graphpulse.NewSSSP(0)
	ref := graphpulse.Solve(g, graphpulse.NewSSSP(0))

	lig := graphpulse.RunLigra(graphpulse.DefaultLigraConfig(), g, alg)
	for v := range ref.Values {
		if math.Abs(lig.Values[v]-ref.Values[v]) > 1e-9 {
			t.Fatalf("ligra vertex %d: %g vs %g", v, lig.Values[v], ref.Values[v])
		}
	}
	gi, err := graphpulse.RunGraphicionado(graphpulse.DefaultGraphicionadoConfig(), g, graphpulse.NewSSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.Values {
		if math.Abs(gi.Values[v]-ref.Values[v]) > 1e-9 {
			t.Fatalf("graphicionado vertex %d: %g vs %g", v, gi.Values[v], ref.Values[v])
		}
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g, err := graphpulse.NewGraph(3, []graphpulse.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphpulse.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := graphpulse.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 2 {
		t.Errorf("round trip edges = %d", back.NumEdges())
	}
	var txt bytes.Buffer
	if err := graphpulse.WriteEdgeList(&txt, g); err != nil {
		t.Fatal(err)
	}
	back2, err := graphpulse.ReadEdgeList(&txt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if back2.NumVertices() != 3 {
		t.Errorf("text round trip vertices = %d", back2.NumVertices())
	}
	st := graphpulse.ComputeGraphStats(g)
	if st.Edges != 2 {
		t.Errorf("stats edges = %d", st.Edges)
	}
}

func TestFacadeDatasets(t *testing.T) {
	if got := len(graphpulse.Datasets()); got != 5 {
		t.Fatalf("Datasets = %d, want 5", got)
	}
	d, err := graphpulse.DatasetByAbbrev("WG")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Generate(graphpulse.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Error("empty dataset stand-in")
	}
}

func TestFacadeEnergy(t *testing.T) {
	if p := graphpulse.AcceleratorPowerWatts(1); p < 8 || p > 10 {
		t.Errorf("power = %.2f W, want ≈ 9", p)
	}
	r, err := graphpulse.EnergyEfficiencyRatio(1, 28)
	if err != nil {
		t.Fatal(err)
	}
	if r < 200 || r > 350 {
		t.Errorf("efficiency = %.0f×, want ≈ 280×", r)
	}
	if len(graphpulse.EnergyTableV()) != 4 {
		t.Error("Table V rows missing")
	}
}

func TestFacadeCluster(t *testing.T) {
	g, err := graphpulse.GenerateRMAT(graphpulse.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 8,
		Weighted: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := graphpulse.Solve(g, graphpulse.NewConnectedComponents())
	res, err := graphpulse.RunCluster(graphpulse.DefaultClusterConfig(), g, graphpulse.NewConnectedComponents())
	if err != nil {
		t.Fatal(err)
	}
	if res.Chips != 4 {
		t.Errorf("Chips = %d", res.Chips)
	}
	for v := range ref.Values {
		if res.Values[v] != ref.Values[v] {
			t.Fatalf("cluster vertex %d = %g, want %g", v, res.Values[v], ref.Values[v])
		}
	}
}

func TestFacadeIncremental(t *testing.T) {
	g, err := graphpulse.GenerateGrid(10, 10, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold := graphpulse.Solve(g, graphpulse.NewSSSP(0))
	added := []graphpulse.Edge{{Src: 0, Dst: 99, Weight: 0.05}}
	newG, warm, err := graphpulse.IncrementalAfterInsert(graphpulse.NewSSSP(0), g, added, cold.Values)
	if err != nil {
		t.Fatal(err)
	}
	incr := graphpulse.Solve(newG, warm)
	if got := incr.Values[99]; math.Abs(got-0.05) > 1e-9 {
		t.Errorf("shortcut distance = %g, want 0.05", got)
	}
}
