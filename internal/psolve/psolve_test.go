package psolve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/psolve"
	"graphpulse/internal/sim"
)

// testShapes spans the regimes that stress the sharded solver differently:
// power-law skew (imbalanced shards), a grid (boundary-heavy cuts), a chain
// (worst-case sequential dependence across every shard boundary), and a
// star (one hub shard feeding all others).
func testShapes(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	shapes := map[string]*graph.CSR{}
	var err error
	if shapes["rmat"], err = gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Scale: 8, EdgeFactor: 4, Weighted: true, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if shapes["grid"], err = gen.Grid2D(9, 7, true, 2); err != nil {
		t.Fatal(err)
	}
	if shapes["chain"], err = gen.Chain(60, true); err != nil {
		t.Fatal(err)
	}
	if shapes["star"], err = gen.Star(40); err != nil {
		t.Fatal(err)
	}
	return shapes
}

// TestMatchesSerial checks the tentpole contract on a focused matrix: for
// every shape × algorithm × worker count, the parallel solver's fixed point
// agrees with the serial golden model within the repository tolerance
// policy (exactly, for the monotone algorithms). The full shapes ×
// algorithms conformance matrix runs in internal/conformance.
func TestMatchesSerial(t *testing.T) {
	algs := []string{"pagerank-delta", "sssp", "connected-components"}
	for shapeName, g := range testShapes(t) {
		for _, algName := range algs {
			ac, err := conformance.AlgCaseByName(algName)
			if err != nil {
				t.Fatal(err)
			}
			pg := ac.Prepared(g)
			root := graph.BestRoot(pg)
			want := algorithms.Solve(pg, ac.New(root))
			tol := conformance.Tolerance(ac.New(root), pg)
			for _, workers := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", shapeName, algName, workers), func(t *testing.T) {
					res, err := psolve.SolveCtx(nil, pg, ac.New(root), psolve.Config{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("psolve[w=%d] vs solve on %s/%s", workers, shapeName, algName)
					if err := conformance.CompareValues(label, res.Values, want.Values, tol); err != nil {
						t.Fatal(err)
					}
					checkCounters(t, res, workers)
				})
			}
		}
	}
}

// checkCounters asserts the Result counters are internally consistent.
func checkCounters(t *testing.T, res *psolve.Result, requested int) {
	t.Helper()
	if res.Workers < 1 || res.Workers > requested {
		t.Fatalf("Workers = %d, want 1..%d", res.Workers, requested)
	}
	if len(res.WorkerActivations) != res.Workers {
		t.Fatalf("len(WorkerActivations) = %d, want %d", len(res.WorkerActivations), res.Workers)
	}
	var sum int64
	for _, a := range res.WorkerActivations {
		sum += a
	}
	if sum != res.Activations {
		t.Fatalf("WorkerActivations sum %d != Activations %d", sum, res.Activations)
	}
	if res.Activations <= 0 {
		t.Fatalf("Activations = %d, want > 0", res.Activations)
	}
	if res.Workers == 1 {
		if res.CrossShardDeltas != 0 || res.CrossShardBatches != 0 || res.CutEdges != 0 {
			t.Fatalf("single shard moved cross-shard work: deltas=%d batches=%d cut=%d",
				res.CrossShardDeltas, res.CrossShardBatches, res.CutEdges)
		}
	}
}

// TestOneShardIsSerial: a solve with one shard is the serial solver — at
// Workers 1, and at Workers 4 on a graph too small to split — so Values,
// Activations and Emitted match algorithms.SolveCtx bit for bit, cold and
// warm, and no cross-shard counter moves.
func TestOneShardIsSerial(t *testing.T) {
	single, err := graph.FromEdges(1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		g       *graph.CSR
		workers int
	}
	inputs := map[string]input{"single/w4": {single, 4}}
	for name, g := range testShapes(t) {
		inputs[name+"/w1"] = input{g, 1}
	}
	for inName, in := range inputs {
		for _, name := range algorithms.Names() {
			g := in.g
			if name == "ads" {
				g = g.NormalizeInbound() // adsorption converges only on inbound-normalized weights
			}
			alg, err := algorithms.ByName(name, graph.BestRoot(g))
			if err != nil {
				t.Fatal(err)
			}
			// The warm start resumes from the cold fixed point and
			// re-delivers the cold seeds, so it does real work.
			cold := algorithms.Solve(g, alg)
			warm := algorithms.WarmStart(alg, cold.Values, alg.InitialEvents(g))
			for mode, a := range map[string]algorithms.Algorithm{"cold": alg, "warm": warm} {
				t.Run(fmt.Sprintf("%s/%s/%s", inName, name, mode), func(t *testing.T) {
					want, err := algorithms.SolveCtx(nil, g, a)
					if err != nil {
						t.Fatal(err)
					}
					got, err := psolve.SolveCtx(nil, g, a, psolve.Config{Workers: in.workers})
					if err != nil {
						t.Fatal(err)
					}
					for v := range want.Values {
						if math.Float64bits(got.Values[v]) != math.Float64bits(want.Values[v]) {
							t.Fatalf("vertex %d: psolve %v, serial %v", v, got.Values[v], want.Values[v])
						}
					}
					if got.Activations != want.Activations || got.Emitted != want.Emitted {
						t.Fatalf("activations/emitted %d/%d, serial %d/%d",
							got.Activations, got.Emitted, want.Activations, want.Emitted)
					}
					if got.Workers != 1 || len(got.WorkerActivations) != 1 || got.WorkerActivations[0] != want.Activations {
						t.Fatalf("Workers %d, WorkerActivations %v; want 1, [%d]", got.Workers, got.WorkerActivations, want.Activations)
					}
					if got.CrossShardDeltas != 0 || got.CrossShardCoalesced != 0 || got.CrossShardBatches != 0 ||
						got.CutEdges != 0 || got.TerminationRounds != 0 {
						t.Fatalf("one shard reported exchange: deltas=%d coalesced=%d batches=%d cut=%d rounds=%d",
							got.CrossShardDeltas, got.CrossShardCoalesced, got.CrossShardBatches, got.CutEdges, got.TerminationRounds)
					}
				})
			}
		}
	}
}

// TestTerminationStress runs the sharded path where a lost wake-up or an
// early done would show: skewed graphs over eight seeds, worker counts that
// do and do not divide the vertex count, and batches of one entry (a flush
// per remote delta) beside the default. Every solve has a deadline, so a
// hang fails its own cell instead of timing out the test binary.
func TestTerminationStress(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, err := gen.RMAT(gen.RMATParams{
			A: 0.57, B: 0.19, C: 0.19, D: 0.05,
			Scale: 8, EdgeFactor: 4, Weighted: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		root := graph.BestRoot(g)
		for _, name := range []string{"pr", "sssp", "cc"} {
			alg, err := algorithms.ByName(name, root)
			if err != nil {
				t.Fatal(err)
			}
			want := algorithms.Solve(g, alg)
			tol := conformance.Tolerance(alg, g)
			for _, workers := range []int{2, 3, 8} {
				for _, batch := range []int{1, 256} {
					cfg := psolve.Config{Workers: workers, BatchSize: batch}
					t.Run(fmt.Sprintf("seed%d/%s/w%d/b%d", seed, name, workers, batch), func(t *testing.T) {
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						defer cancel()
						res, err := psolve.SolveCtx(ctx, g, alg, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := conformance.CompareValues("psolve vs solve", res.Values, want.Values, tol); err != nil {
							t.Fatal(err)
						}
						if res.CutEdges > 0 && res.CrossShardBatches == 0 {
							t.Fatalf("%d cut edges but no cross-shard batch", res.CutEdges)
						}
					})
				}
			}
		}
	}
}

// TestTinyBatches forces a flush after nearly every remote delta, stressing
// the exchange and termination machinery far harder than the default batch
// size would.
func TestTinyBatches(t *testing.T) {
	g, err := gen.Chain(60, true)
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.Solve(g, algorithms.NewSSSP(0))
	res, err := psolve.SolveCtx(nil, g, algorithms.NewSSSP(0), psolve.Config{Workers: 8, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.CompareValues("psolve[batch=1] vs solve", res.Values, want.Values, 0); err != nil {
		t.Fatal(err)
	}
	if res.CrossShardDeltas == 0 {
		t.Fatal("chain across 8 shards exchanged no cross-shard deltas")
	}
}

// TestDegenerateGraphs covers the shard-count edge cases.
func TestDegenerateGraphs(t *testing.T) {
	empty, err := graph.FromEdges(0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := psolve.SolveCtx(nil, empty, algorithms.NewConnectedComponents(), psolve.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 || res.Activations != 0 {
		t.Fatalf("empty graph: got %d values, %d activations", len(res.Values), res.Activations)
	}

	// A single vertex is TestOneShardIsSerial's case. More workers than
	// vertices: the shard count clamps to n.
	tiny, err := gen.Chain(3, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err = psolve.SolveCtx(nil, tiny, algorithms.NewBFS(0), psolve.Config{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers > 3 {
		t.Fatalf("3-vertex graph ran %d workers", res.Workers)
	}
	want := algorithms.Solve(tiny, algorithms.NewBFS(0))
	if err := conformance.CompareValues("psolve clamped workers", res.Values, want.Values, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCanceled verifies the cancellation contract: a canceled context stops
// the fleet, or the one-shard serial solve, with an error wrapping
// sim.ErrCanceled, like every other engine.
func TestCanceled(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Scale: 8, EdgeFactor: 4, Weighted: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err = psolve.SolveCtx(ctx, g, algorithms.NewPageRankDelta(), psolve.Config{Workers: workers})
		if !errors.Is(err, sim.ErrCanceled) {
			t.Fatalf("canceled solve at %d workers returned %v, want sim.ErrCanceled", workers, err)
		}
	}
}

// TestDeterministicForMonotone: the monotone algorithms have a unique fixed
// point, so repeated parallel runs must agree bit-for-bit regardless of
// scheduling.
func TestDeterministicForMonotone(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Scale: 8, EdgeFactor: 4, Weighted: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := graph.BestRoot(g)
	first, err := psolve.SolveCtx(nil, g, algorithms.NewSSSP(root), psolve.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := psolve.SolveCtx(nil, g, algorithms.NewSSSP(root), psolve.Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := conformance.CompareValues("psolve run-to-run", res.Values, first.Values, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoRelabelIsInert pins Config.NoRelabel as a no-op: with the relabel
// pass gone, both settings shard the graph as given, so the edge cut — which
// depends only on the partition — and the monotone fixed points are identical.
func TestNoRelabelIsInert(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Scale: 8, EdgeFactor: 4, Weighted: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := graph.BestRoot(g)
	for name, mk := range map[string]func() algorithms.Algorithm{
		"sssp": func() algorithms.Algorithm { return algorithms.NewSSSP(root) },
		"cc":   func() algorithms.Algorithm { return algorithms.NewConnectedComponents() },
	} {
		def, _ := psolve.SolveCtx(nil, g, mk(), psolve.Config{Workers: 4})
		off, _ := psolve.SolveCtx(nil, g, mk(), psolve.Config{Workers: 4, NoRelabel: true})
		if def.CutEdges != off.CutEdges {
			t.Errorf("%s: CutEdges %d (default) != %d (NoRelabel)", name, def.CutEdges, off.CutEdges)
		}
		if err := conformance.CompareValues(name+" default vs NoRelabel", def.Values, off.Values, 0); err != nil {
			t.Error(err)
		}
	}
}
