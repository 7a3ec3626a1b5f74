package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/stream"
)

// This file is the per-epoch differential harness for the streaming
// subsystem: every mutation sequence is replayed through stream.Replayer
// (the same warm-path selection the serving tier uses) and the warm state
// is compared against a cold Solve of the current graph after EVERY
// epoch, not just at the end — a wrong intermediate fixed point cannot
// hide behind a later mutation that happens to repair it.

// streamAlgorithms is the algorithm slice of the streaming matrix: the
// two warm-path regimes (sum-based pr; monotone sssp/cc/reach) across
// min- and max-reducing and constant-propagating algorithms.
func streamAlgorithms(t *testing.T) []AlgCase {
	t.Helper()
	var out []AlgCase
	for _, name := range []string{"pagerank-delta", "sssp", "connected-components", "reach"} {
		c, err := AlgCaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// streamEngines is the engine slice: the serial worklist solver and the
// sharded parallel solver, the two backends the serving tier warm-starts.
func streamEngines() []Engine {
	return []Engine{EngineSolve(), EnginePSolve(PSolveConfig())}
}

// engineSolveFunc adapts a conformance Engine to the Replayer's
// engine-agnostic solve hook.
func engineSolveFunc(e Engine) stream.SolveFunc {
	return func(g *graph.CSR, alg algorithms.Algorithm) ([]float64, error) {
		return e.Run(g, func() algorithms.Algorithm { return alg })
	}
}

// checkEpoch compares the replayer's warm state for the current epoch
// against a cold solve of the current graph.
func checkEpoch(t *testing.T, label string, r *stream.Replayer, mk func() algorithms.Algorithm, tol float64) {
	t.Helper()
	got, err := r.State()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := algorithms.Solve(r.Graph(), mk()).Values
	if err := CompareValues(fmt.Sprintf("%s (epoch %d, mode %s)", label, r.Epoch, r.LastMode), got, want, tol); err != nil {
		t.Fatal(err)
	}
}

// TestStreamOracleMatrix scripts one mutation sequence — insert-only,
// delete-only, mixed insert+delete of base edges, and a multi-edge delete
// of every surviving insert —
// over every (algorithm, engine) pair of the streaming matrix, checking
// the warm state against the cold oracle after each epoch.
func TestStreamOracleMatrix(t *testing.T) {
	base, err := Shapes()[1].Build(43) // erdos-renyi, 220 vertices
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range streamAlgorithms(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, e := range streamEngines() {
				e := e
				t.Run(e.Name, func(t *testing.T) {
					t.Parallel()
					prepared := c.Prepared(base)
					mk := c.Maker(graph.BestRoot(prepared))
					// Warm and cold runs each carry their own threshold
					// residue for the sum-based algorithms.
					tol := 2 * Tolerance(mk(), prepared)
					r := stream.NewReplayer(prepared, mk, engineSolveFunc(e), 1)
					label := fmt.Sprintf("stream/%s/%s", c.Name, e.Name)

					ins := []graph.Edge{
						{Src: 3, Dst: 141, Weight: 0.2}, {Src: 141, Dst: 77, Weight: 0.4},
						{Src: 77, Dst: 3, Weight: 0.6}, {Src: 200, Dst: 10, Weight: 0.8},
					}
					if err := r.Apply(ins, nil); err != nil {
						t.Fatal(err)
					}
					checkEpoch(t, label+"/insert", r, mk, tol)

					if err := r.Apply(nil, ins[:2]); err != nil {
						t.Fatal(err)
					}
					checkEpoch(t, label+"/delete", r, mk, tol)

					victim := prepared.Edges()[0]
					if err := r.Apply(
						[]graph.Edge{{Src: 50, Dst: 51, Weight: 0.3}},
						[]graph.Edge{victim}); err != nil {
						t.Fatal(err)
					}
					checkEpoch(t, label+"/mixed", r, mk, tol)

					// Every insert still live goes in one epoch; the
					// surviving base edges stay.
					live := r.Graph().NumEdges()
					if err := r.Apply(nil, []graph.Edge{ins[2], ins[3], {Src: 50, Dst: 51}}); err != nil {
						t.Fatal(err)
					}
					if n := live - r.Graph().NumEdges(); n != 3 {
						t.Fatalf("deleted %d edges, want the 3 live inserts", n)
					}
					checkEpoch(t, label+"/delete-inserts", r, mk, tol)

					if r.SeedStarts == 0 || r.ConeStarts == 0 {
						t.Fatalf("warm paths not exercised: seed=%d cone=%d replay=%d",
							r.SeedStarts, r.ConeStarts, r.Replays)
					}
				})
			}
		})
	}
}

// TestStreamRandomizedStress replays a seeded random interleaving of
// inserts and deletes over a Table IV tiny-tier stand-in, holding every
// epoch to the cold oracle. Deletes draw from the pool of previously
// inserted edges (so most epochs get a nontrivial cone) and occasionally
// from the base edge set; now and then one epoch deletes the whole pool.
func TestStreamRandomizedStress(t *testing.T) {
	ds, err := gen.DatasetByAbbrev("WG")
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.Default.Generate(ds, gen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 5
	for _, c := range streamAlgorithms(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for ei, e := range streamEngines() {
				e, ei := e, ei
				t.Run(e.Name, func(t *testing.T) {
					t.Parallel()
					prepared := c.Prepared(base)
					n := prepared.NumVertices()
					mk := c.Maker(graph.BestRoot(prepared))
					tol := 2 * Tolerance(mk(), prepared)
					r := stream.NewReplayer(prepared, mk, engineSolveFunc(e), stream.DefaultMaxConeFraction)
					rng := rand.New(rand.NewSource(int64(1000*ei) + int64(len(c.Name))))
					label := fmt.Sprintf("stress/%s/%s", c.Name, e.Name)

					var pool []graph.Edge // inserted and not yet deleted
					for epoch := 0; epoch < epochs; epoch++ {
						var ins, dels []graph.Edge
						for i := 0; i < 4+rng.Intn(8); i++ {
							ins = append(ins, graph.Edge{
								Src:    graph.VertexID(rng.Intn(n)),
								Dst:    graph.VertexID(rng.Intn(n)),
								Weight: float32(rng.Intn(100)+1) / 100,
							})
						}
						for i := 0; i < rng.Intn(4) && len(pool) > 0; i++ {
							j := rng.Intn(len(pool))
							dels = append(dels, pool[j])
							pool = append(pool[:j], pool[j+1:]...)
						}
						if rng.Intn(3) == 0 { // sometimes delete a base edge
							dels = append(dels, prepared.Edges()[rng.Intn(prepared.NumEdges())])
						}
						if err := r.Apply(ins, dels); err != nil {
							t.Fatalf("%s epoch %d: %v", label, epoch, err)
						}
						pool = append(pool, ins...)
						checkEpoch(t, label+"/mutate", r, mk, tol)

						if rng.Intn(3) == 0 {
							if err := r.Apply(nil, pool); err != nil {
								t.Fatalf("%s epoch %d delete pool: %v", label, epoch, err)
							}
							pool = nil
							checkEpoch(t, label+"/delete-pool", r, mk, tol)
						}
					}
				})
			}
		})
	}
}

// TestMetamorphicInsertDeleteNoop wires the insert-then-delete round-trip
// invariant into the shapes × algorithms matrix for the serial and
// parallel solvers.
func TestMetamorphicInsertDeleteNoop(t *testing.T) {
	for _, shape := range metamorphicShapes(t) {
		shape := shape
		t.Run(shape.Name, func(t *testing.T) {
			t.Parallel()
			g, err := shape.Build(53)
			if err != nil {
				t.Fatal(err)
			}
			batch := randomInsertions(g, 10, 59)
			for _, c := range Algorithms() {
				c := c
				if !c.Incremental {
					continue
				}
				t.Run(c.Name, func(t *testing.T) {
					t.Parallel()
					if err := VerifyInsertDeleteNoop(g, c, batch); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}
