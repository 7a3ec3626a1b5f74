package graphicionado

import (
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

func testGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Oracle-agreement tests live in graphicionado_conformance_test.go, which
// routes them through the shared internal/conformance harness and tolerance
// policy.

func TestGraphicionadoBFSIterationsEqualDepth(t *testing.T) {
	g, err := gen.Chain(30, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultConfig(), g, algorithms.NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	// BSP: one iteration per BFS level (plus the final empty check).
	if res.Iterations < 29 || res.Iterations > 31 {
		t.Errorf("Iterations = %d, want ≈ chain depth 30", res.Iterations)
	}
	if res.Cycles == 0 || res.Seconds <= 0 {
		t.Error("timing not recorded")
	}
}

func TestGraphicionadoTrafficAccounted(t *testing.T) {
	g := testGraph(t)
	res, err := Run(DefaultConfig(), g, algorithms.NewBFS(graph.BestRoot(g)))
	if err != nil {
		t.Fatal(err)
	}
	if res.MemReads == 0 {
		t.Error("no reads recorded (edge + vertex streams)")
	}
	// The apply phase writes back each touched vertex's property record.
	if res.MemWrites == 0 {
		t.Error("no apply-phase writes recorded")
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization = %g", res.Utilization)
	}
	if res.OffChipAccesses() != res.MemReads+res.MemWrites {
		t.Error("OffChipAccesses inconsistent")
	}
	if res.BytesMoved != 64*res.OffChipAccesses() {
		t.Error("BytesMoved inconsistent with line transfers")
	}
}

func TestGraphicionadoSequentialStreamsUtilizeWell(t *testing.T) {
	// CC activates everything: the edge stream covers the whole CSR, so
	// utilization should be high (sequential streaming).
	g := testGraph(t)
	res, err := Run(DefaultConfig(), g, algorithms.NewConnectedComponents())
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.5 {
		t.Errorf("utilization = %.2f, want ≥ 0.5 for sequential edge streaming", res.Utilization)
	}
}

func TestGraphicionadoConfigValidation(t *testing.T) {
	g, _ := gen.Chain(4, false)
	muts := []func(*Config){
		func(c *Config) { c.Streams = 0 },
		func(c *Config) { c.PrefetchLines = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.MaxIterations = 0 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := Run(cfg, g, algorithms.NewBFS(0)); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	empty, _ := graph.FromEdges(0, nil, false)
	if _, err := Run(DefaultConfig(), empty, algorithms.NewBFS(0)); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestGraphicionadoMoreEdgeTraversalsThanAsync(t *testing.T) {
	// BSP re-streams active vertices every iteration without lookahead;
	// edge traversals must be at least the oracle's (which coalesces per
	// vertex activation).
	g := testGraph(t)
	res, err := Run(DefaultConfig(), g, algorithms.NewConnectedComponents())
	if err != nil {
		t.Fatal(err)
	}
	oracle := algorithms.Solve(g, algorithms.NewConnectedComponents())
	if res.EdgesTraversed < oracle.Emitted {
		t.Errorf("BSP traversed %d edges, less than coalescing worklist %d",
			res.EdgesTraversed, oracle.Emitted)
	}
}
