package stream

import (
	"fmt"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// DefaultMaxConeFraction is the cone-size cutoff used when a caller passes
// a non-positive fraction to PlanRestart: once more than half the vertices
// need a reset, a selective restart re-solves most of the graph anyway and
// a full replay is both simpler and cheaper.
const DefaultMaxConeFraction = 0.5

// Plan is the outcome of PlanRestart: either a warm continuation (State +
// Seeds to run through algorithms.WarmStart on the new graph) or the
// decision to replay from scratch.
type Plan struct {
	// Replay reports that the dependency cone exceeded the configured
	// fraction of the vertex set; State and Seeds are nil and the caller
	// should cold-solve the new graph.
	Replay bool
	// ConeSize is the number of vertices whose state the plan resets
	// (reported even when Replay is true, for observability).
	ConeSize int
	// State is the warm per-vertex state: converged values outside the
	// cone, cold-start InitState inside it.
	State []float64
	// Seeds are the initial events that restart the computation: boundary
	// contributions crossing into the cone plus the algorithm's own
	// bootstrap events for cone vertices.
	Seeds []algorithms.InitialEvent
}

// PlanRestart computes a selective-restart plan for re-converging alg
// after the edge-set change (added, removed) produced newG, given the
// state converged before the change.
//
// The dependency cone is the set of vertices whose pre-change value may be
// stale: the heads of every removed edge (they lost a contribution), the
// heads of every added edge (they gained one), for degree-sensitive
// propagation (PageRank-style division by the source out-degree) every
// surviving out-neighbor of a source whose degree changed — closed under
// out-edge reachability in the new graph, because a stale value may have
// been forwarded anywhere downstream.
//
// Closure under new-graph out-edges gives the two properties the warm
// start relies on: no vertex outside the cone has any in-edge from inside
// it (so the frozen outside values receive no events during
// re-convergence), and every outside vertex's fixed-point equation over
// the new graph involves only outside vertices with unchanged in-edge
// sets and source degrees (so those values are still exact). Cone
// vertices are reset to InitState and re-converge from the boundary
// contributions of their surviving outside in-edges plus the filtered
// bootstrap events — a cold solve of the cone subproblem with exact
// boundary conditions.
//
// maxConeFrac (≤0 means DefaultMaxConeFraction) caps the cone: above
// maxConeFrac·n the plan is a replay.
func PlanRestart(alg algorithms.Algorithm, newG *graph.CSR, added, removed []graph.Edge, state []float64, maxConeFrac float64) (*Plan, error) {
	n := newG.NumVertices()
	if len(state) != n {
		return nil, fmt.Errorf("stream: state has %d entries for %d vertices", len(state), n)
	}
	if maxConeFrac <= 0 {
		maxConeFrac = DefaultMaxConeFraction
	}
	if err := checkBatch(newG, added, removed); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}

	inCone := make([]bool, n)
	var frontier []graph.VertexID
	mark := func(v graph.VertexID) {
		if !inCone[v] {
			inCone[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, e := range removed {
		mark(e.Dst)
	}
	for _, e := range added {
		mark(e.Dst)
	}
	if degreeSensitive(alg) {
		// A changed out-degree rescales the source's flow on every
		// surviving edge, so all its current out-neighbors are stale too.
		for _, src := range sources(removed, added) {
			for _, v := range newG.Neighbors(src) {
				mark(v)
			}
		}
	}
	// Close under new-graph out-edges: stale values may have cascaded.
	for i := 0; i < len(frontier); i++ {
		for _, w := range newG.Neighbors(frontier[i]) {
			mark(w)
		}
	}

	cone := len(frontier)
	if float64(cone) > maxConeFrac*float64(n) {
		return &Plan{Replay: true, ConeSize: cone}, nil
	}

	warm := append([]float64(nil), state...)
	for _, v := range frontier {
		warm[v] = alg.InitState(v)
	}

	identity := alg.Identity()
	var seeds []algorithms.InitialEvent
	for u := 0; u < n; u++ {
		uid := graph.VertexID(u)
		if inCone[uid] || state[uid] == identity {
			// In-cone sources contribute through ordinary propagation as
			// they re-converge; identity-valued sources carry nothing (and
			// for constant-propagate algorithms like Reach, forwarding an
			// unreached source would fabricate reachability).
			continue
		}
		deg := newG.OutDegree(uid)
		nbrs := newG.Neighbors(uid)
		weights := newG.NeighborWeights(uid)
		for i, v := range nbrs {
			if !inCone[v] {
				continue
			}
			w := float32(1)
			if weights != nil {
				w = weights[i]
			}
			d := alg.Propagate(state[uid], algorithms.EdgeContext{
				Src: uid, Dst: v, Weight: w, SrcOutDegree: deg,
			})
			if d == identity {
				continue
			}
			seeds = append(seeds, algorithms.InitialEvent{Vertex: v, Delta: d})
		}
	}
	for _, ev := range alg.InitialEvents(newG) {
		if inCone[ev.Vertex] {
			seeds = append(seeds, ev)
		}
	}
	return &Plan{ConeSize: cone, State: warm, Seeds: seeds}, nil
}

// degreeSensitive probes whether alg's propagation depends on the source
// out-degree (PageRank-style division). A behavioral probe keeps the
// planner decoupled from the concrete algorithm set.
func degreeSensitive(alg algorithms.Algorithm) bool {
	a := alg.Propagate(1, algorithms.EdgeContext{Weight: 1, SrcOutDegree: 1})
	b := alg.Propagate(1, algorithms.EdgeContext{Weight: 1, SrcOutDegree: 2})
	return a != b
}
