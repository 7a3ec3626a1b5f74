package conformance

import (
	"fmt"
	"math/rand"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/core"
	"graphpulse/internal/graph"
	"graphpulse/internal/stream"
)

// This file implements the metamorphic invariants: transformations of the
// input whose effect on the output is known exactly, so any engine can be
// cross-checked without an oracle for the transformed instance.

// VerifyRelabelInvariance checks that renaming vertices does not change the
// computation: running c on g relabeled by a random permutation must yield
// the permuted values (for label-independent algorithms) or a consistently
// permuted partition (for ConnectedComponents, whose values ARE labels).
// The relabeled run goes through the worklist solver, the parallel solver,
// and the accelerator — relabeling changes the queue's vertex→(bin,row,col)
// mapping, the accelerator's slice assignment, and psolve's shard
// boundaries, so this doubles as a scheduling-independence test.
func VerifyRelabelInvariance(g *graph.CSR, c AlgCase, seed int64) error {
	if c.Name == "connected-components" {
		// Max-label propagation on a directed graph assigns each vertex the
		// largest id among its ancestors, so the induced partition depends on
		// the numbering. On a symmetric graph the labels are genuine weakly-
		// connected components and the partition IS relabel-invariant.
		sym, err := symmetrize(g)
		if err != nil {
			return err
		}
		g = sym
	}
	prepared := c.Prepared(g)
	n := prepared.NumVertices()
	root := graph.BestRoot(prepared)
	base := algorithms.Solve(prepared, c.Maker(root)())

	rng := rand.New(rand.NewSource(seed))
	perm := make([]graph.VertexID, n)
	for i, p := range rng.Perm(n) {
		perm[i] = graph.VertexID(p)
	}
	rg, err := prepared.Relabel(perm)
	if err != nil {
		return err
	}
	mk := c.Maker(perm[root])
	tol := 2 * Tolerance(mk(), prepared)

	for _, e := range []Engine{EngineSolve(), EnginePSolve(PSolveConfig()), EngineAccelerator(AcceleratorConfig())} {
		got, err := e.Run(rg, mk)
		if err != nil {
			return fmt.Errorf("relabel/%s: %w", e.Name, err)
		}
		if c.Name == "connected-components" {
			if err := samePartition(base.Values, got, perm); err != nil {
				return fmt.Errorf("relabel/%s on %s: %w", e.Name, c.Name, err)
			}
			continue
		}
		unperm := make([]float64, n)
		for v := 0; v < n; v++ {
			unperm[v] = got[perm[v]]
		}
		if err := CompareValues(fmt.Sprintf("relabel/%s on %s", e.Name, c.Name), unperm, base.Values, tol); err != nil {
			return err
		}
	}
	return nil
}

// symmetrize adds the reverse of every edge so label propagation reaches
// the whole weakly connected component.
func symmetrize(g *graph.CSR) (*graph.CSR, error) {
	edges := g.Edges()
	for _, e := range g.Edges() {
		edges = append(edges, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return graph.FromEdges(g.NumVertices(), edges, g.Weighted())
}

// samePartition checks that two labelings induce the same partition of the
// vertex set, where vertex v of the base graph is vertex perm[v] of the
// relabeled graph: the label mapping must be a bijection.
func samePartition(base, relabeled []float64, perm []graph.VertexID) error {
	fwd := make(map[float64]float64)
	rev := make(map[float64]float64)
	for v := range base {
		b, r := base[v], relabeled[perm[v]]
		if prev, ok := fwd[b]; ok && prev != r {
			return fmt.Errorf("component of label %g split (%g vs %g)", b, prev, r)
		}
		if prev, ok := rev[r]; ok && prev != b {
			return fmt.Errorf("components %g and %g merged into %g", prev, b, r)
		}
		fwd[b], rev[r] = r, b
	}
	return nil
}

// VerifyTransposeConsistency checks the CSR/CSC duality the pull-direction
// machinery relies on: double transposition is the identity (up to sorted
// adjacency), and Ligra's pull traversal (which consumes the transpose)
// agrees with its push traversal and with the worklist solver.
func VerifyTransposeConsistency(g *graph.CSR, c AlgCase) error {
	prepared := c.Prepared(g)
	tt := prepared.Transpose().Transpose()
	if !tt.Equal(prepared.SortNeighbors()) {
		return fmt.Errorf("transpose on %s: double transpose is not the identity", c.Name)
	}
	root := graph.BestRoot(prepared)
	mk := c.Maker(root)
	want := algorithms.Solve(prepared, mk()).Values
	tol := 2 * Tolerance(mk(), prepared)
	for _, dir := range []ligra.Direction{ligra.PushOnly, ligra.PullOnly} {
		cfg := LigraConfig()
		cfg.Direction = dir
		got := ligra.New(cfg, prepared).Run(mk()).Values
		if err := CompareValues(fmt.Sprintf("transpose/ligra-dir%d on %s", dir, c.Name), got, want, tol); err != nil {
			return err
		}
	}
	return nil
}

// VerifyPartitionInvariance checks that slicing the graph (Section IV-F)
// never changes results: the accelerator run as one slice and as several
// slices must agree with each other and with the worklist solver.
func VerifyPartitionInvariance(g *graph.CSR, c AlgCase) error {
	prepared := c.Prepared(g)
	root := graph.BestRoot(prepared)
	mk := c.Maker(root)
	tol := Tolerance(mk(), prepared)
	want := algorithms.Solve(prepared, mk()).Values

	one := AcceleratorConfig() // QueueCapacity 0: single slice
	many := AcceleratorConfig()
	many.QueueCapacity = prepared.NumVertices()/3 + 1 // forces ≥ 3 slices

	var values [][]float64
	for _, cfg := range []core.Config{one, many} {
		res, err := runAccelerator(cfg, prepared, mk())
		if err != nil {
			return fmt.Errorf("partition(%s cap=%d) on %s: %w", cfg.Name, cfg.QueueCapacity, c.Name, err)
		}
		if err := CompareValues(fmt.Sprintf("partition(cap=%d) vs solve on %s", cfg.QueueCapacity, c.Name),
			res.Values, want, tol); err != nil {
			return err
		}
		values = append(values, res.Values)
	}
	// Slice count must not even perturb the float summation order's result
	// beyond the tolerance; for monotone algorithms this is exact equality.
	return CompareValues(fmt.Sprintf("partition 1-slice vs N-slice on %s", c.Name), values[1], values[0], tol)
}

// VerifyWorkerCountInvariance is the psolve analogue of
// VerifyPartitionInvariance: the shard count is a scheduling knob, not a
// semantic one, so the parallel solver must agree with the serial worklist
// solver at every worker count — exactly, for the monotone algorithms
// (Tolerance 0), and within the threshold-residue band for the sum-based
// ones.
func VerifyWorkerCountInvariance(g *graph.CSR, c AlgCase, workerCounts []int) error {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 3, 8}
	}
	prepared := c.Prepared(g)
	root := graph.BestRoot(prepared)
	mk := c.Maker(root)
	want := algorithms.Solve(prepared, mk()).Values
	tol := Tolerance(mk(), prepared)
	for _, w := range workerCounts {
		cfg := PSolveConfig()
		cfg.Workers = w
		e := EnginePSolve(cfg)
		got, err := e.Run(prepared, mk)
		if err != nil {
			return fmt.Errorf("workers/%s on %s: %w", e.Name, c.Name, err)
		}
		if err := CompareValues(fmt.Sprintf("%s vs solve on %s", e.Name, c.Name), got, want, tol); err != nil {
			return err
		}
	}
	return nil
}

// VerifyInsertDeleteNoop checks the streaming round-trip invariant:
// inserting a batch of edges and then deleting that same batch must land
// back on the never-mutated fixed point — the insertion-seeding warm
// start on the way in, the deletion-cone restart on the way out — for
// both the serial worklist solver and the sharded parallel solver. Batch
// edges whose (src, dst) pair already exists in the base graph (or
// repeats an earlier batch pair) are dropped first: deletion matches by
// pair, so such edges would legitimately take base edges with them and
// the round trip would not be a no-op.
func VerifyInsertDeleteNoop(base *graph.CSR, c AlgCase, batch []graph.Edge) error {
	prepared := c.Prepared(base)
	root := graph.BestRoot(prepared)
	mk := c.Maker(root)
	batch = freshPairs(prepared, batch)
	if len(batch) == 0 {
		return nil
	}
	want := algorithms.Solve(prepared, mk()).Values
	// Two warm reconvergences plus the cold reference each carry their own
	// threshold residue for the sum-based algorithms.
	tol := 3 * Tolerance(mk(), prepared)
	for _, e := range []Engine{EngineSolve(), EnginePSolve(PSolveConfig())} {
		solve := func(g *graph.CSR, alg algorithms.Algorithm) ([]float64, error) {
			return e.Run(g, func() algorithms.Algorithm { return alg })
		}
		r := stream.NewReplayer(prepared, mk, solve, 1)
		if err := r.Apply(batch, nil); err != nil {
			return fmt.Errorf("insert-delete/%s on %s: insert: %w", e.Name, c.Name, err)
		}
		if err := r.Apply(nil, batch); err != nil {
			return fmt.Errorf("insert-delete/%s on %s: delete: %w", e.Name, c.Name, err)
		}
		got, err := r.State()
		if err != nil {
			return fmt.Errorf("insert-delete/%s on %s: %w", e.Name, c.Name, err)
		}
		if err := CompareValues(fmt.Sprintf("insert-delete/%s vs never-mutated on %s", e.Name, c.Name), got, want, tol); err != nil {
			return err
		}
	}
	return nil
}

// freshPairs filters batch down to in-range edges whose (src, dst) pair
// neither exists in g nor repeats within the batch.
func freshPairs(g *graph.CSR, batch []graph.Edge) []graph.Edge {
	type pair struct{ s, d graph.VertexID }
	n := g.NumVertices()
	seen := make(map[pair]bool, g.NumEdges()+len(batch))
	for _, e := range g.Edges() {
		seen[pair{e.Src, e.Dst}] = true
	}
	var out []graph.Edge
	for _, e := range batch {
		p := pair{e.Src, e.Dst}
		if int(e.Src) >= n || int(e.Dst) >= n || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, e)
	}
	return out
}

// VerifyIncremental checks the streaming-update path: converging on a base
// graph, applying edge insertions through IncrementalAfterInsert/WarmStart,
// and cascading must land on the same fixed point as a cold start on the
// updated graph — on the worklist solver and on the accelerator.
func VerifyIncremental(base *graph.CSR, c AlgCase, added []graph.Edge) error {
	root := graph.BestRoot(base)
	mk := c.Maker(root)
	state := algorithms.Solve(base, mk()).Values
	newG, warm, err := algorithms.IncrementalAfterInsert(mk(), base, added, state)
	if err != nil {
		return fmt.Errorf("incremental on %s: %w", c.Name, err)
	}
	cold := algorithms.Solve(newG, mk()).Values
	// Both the warm and cold runs carry their own threshold residue.
	tol := 2 * Tolerance(mk(), newG)
	mkWarm := func() algorithms.Algorithm { return warm }
	for _, e := range []Engine{EngineSolve(), EngineAccelerator(AcceleratorConfig())} {
		got, err := e.Run(newG, mkWarm)
		if err != nil {
			return fmt.Errorf("incremental/%s on %s: %w", e.Name, c.Name, err)
		}
		if err := CompareValues(fmt.Sprintf("incremental/%s vs cold on %s", e.Name, c.Name), got, cold, tol); err != nil {
			return err
		}
	}
	return nil
}
