package conformance

import (
	"fmt"
	"math"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// This file is the single home of the repository's float-comparison policy.
// Every engine-vs-oracle and engine-vs-engine value comparison goes through
// Tolerance + CompareValues; per-package tests must not invent their own
// epsilons.
//
// Policy:
//
//   - Monotone algorithms (min/max reduce: SSSP, BFS, Reach, CC, SSWP,
//     ReliablePath) converge to a fixed point that is the min/max over a
//     finite set of float-evaluated path values. That set does not depend on
//     scheduling, so every engine must agree EXACTLY (tolerance 0, with
//     ±Inf treated as equal to itself).
//
//   - Sum-based algorithms (PageRankDelta, Adsorption) terminate when a
//     vertex's accumulated change falls below the algorithm's Threshold θ.
//     Which deltas get dropped depends on scheduling, so engines legitimately
//     disagree with each other and with the exact fixed point. The dropped
//     mass per activation is at most θ; cascading it through the linear
//     fixed-point operator (spectral radius ≤ α for PageRank's column-
//     stochastic transition and for inbound-normalized Adsorption) bounds
//     the per-vertex error by roughly n·θ·α/(1-α). BSP engines (Ligra,
//     Graphicionado) finalize sub-threshold deltas once per iteration rather
//     than once per convergence, so the harness applies a small safety
//     factor on top of the analytic bound.
//
// Comparisons against the reference oracles use the same budget: the
// oracles iterate to a 1e-12 total-change tolerance, which is negligible
// against the engine bound.

// toleranceSafety absorbs the iteration-count dependence of BSP residual
// dropping (see the policy comment above).
const toleranceSafety = 8

// Tolerance returns the maximum acceptable per-vertex absolute difference
// when comparing converged values for alg on g. 0 means exact agreement is
// required.
func Tolerance(alg algorithms.Algorithm, g graph.Adjacency) float64 {
	n := float64(g.NumVertices())
	switch a := alg.(type) {
	case *algorithms.PageRankDelta:
		return toleranceSafety * n * a.Threshold * a.Alpha / (1 - a.Alpha)
	case *algorithms.Adsorption:
		return toleranceSafety * n * a.Threshold * a.Alpha / (1 - a.Alpha)
	}
	return 0
}

// CompareValues checks got against want element-wise within tol, treating
// same-signed infinities as equal and requiring exact equality when tol is
// 0. It returns an error naming the first few mismatching vertices.
func CompareValues(label string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: got %d values, want %d", label, len(got), len(want))
	}
	bad := 0
	var first string
	for v := range want {
		a, b := got[v], want[v]
		if a == b ||
			(math.IsInf(a, 1) && math.IsInf(b, 1)) ||
			(math.IsInf(a, -1) && math.IsInf(b, -1)) ||
			(math.IsNaN(a) && math.IsNaN(b)) {
			continue
		}
		if math.Abs(a-b) > tol {
			if bad == 0 {
				first = fmt.Sprintf("vertex %d = %g, want %g (tol %g)", v, a, b, tol)
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%s: %d/%d mismatches; first: %s", label, bad, len(want), first)
	}
	return nil
}
