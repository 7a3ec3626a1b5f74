package algorithms

import (
	"fmt"

	"graphpulse/internal/graph"
)

// This file implements incremental recomputation after edge insertions —
// the streaming-graph extension the delta-accumulative model makes natural
// (and that follow-on work to the paper develops): instead of recomputing
// from scratch when the graph grows, seed correction events that carry
// exactly the contribution difference introduced by the new edges, warm-
// start from the previous fixed point, and let the ordinary event machinery
// cascade the change.
//
// Monotone path/label algorithms (min/max reduce) need only propagate the
// source's converged value across each new edge. PageRank-style linear
// sums additionally need negative corrections: a new out-edge changes the
// source's out-degree, which rescales the flow on all its existing edges.

// InsertionSeeder is implemented by algorithms that support incremental
// recomputation after edge insertions. SeedInsertions returns the
// correction events for adding `added` edges to old (the pre-update graph)
// given the converged pre-update state.
type InsertionSeeder interface {
	SeedInsertions(old graph.Adjacency, added []graph.Edge, state []Value) []InitialEvent
}

// monotoneSeed covers every reduce-min/max algorithm: the new edge simply
// offers the source's converged value, propagated across it.
func monotoneSeed(alg Algorithm, old graph.Adjacency, added []graph.Edge, state []Value, degreeDelta map[graph.VertexID]int) []InitialEvent {
	var out []InitialEvent
	for _, e := range added {
		src := state[e.Src]
		if src == alg.Identity() {
			continue // source never reached; the edge carries nothing yet
		}
		newDeg := old.OutDegree(e.Src) + degreeDelta[e.Src]
		d := alg.Propagate(src, EdgeContext{
			Src: e.Src, Dst: e.Dst, Weight: e.Weight, SrcOutDegree: newDeg,
		})
		out = append(out, InitialEvent{Vertex: e.Dst, Delta: d})
	}
	return out
}

func countDegreeDelta(added []graph.Edge) map[graph.VertexID]int {
	dd := make(map[graph.VertexID]int)
	for _, e := range added {
		dd[e.Src]++
	}
	return dd
}

// SeedInsertions implements InsertionSeeder: offer the converged distance
// across each new edge.
func (s *SSSP) SeedInsertions(old graph.Adjacency, added []graph.Edge, state []Value) []InitialEvent {
	return monotoneSeed(s, old, added, state, countDegreeDelta(added))
}

// SeedInsertions implements InsertionSeeder.
func (b *BFS) SeedInsertions(old graph.Adjacency, added []graph.Edge, state []Value) []InitialEvent {
	return monotoneSeed(b, old, added, state, countDegreeDelta(added))
}

// SeedInsertions implements InsertionSeeder.
func (r *Reach) SeedInsertions(old graph.Adjacency, added []graph.Edge, state []Value) []InitialEvent {
	return monotoneSeed(r, old, added, state, countDegreeDelta(added))
}

// SeedInsertions implements InsertionSeeder.
func (s *SSWP) SeedInsertions(old graph.Adjacency, added []graph.Edge, state []Value) []InitialEvent {
	return monotoneSeed(s, old, added, state, countDegreeDelta(added))
}

// SeedInsertions implements InsertionSeeder.
func (c *ConnectedComponents) SeedInsertions(old graph.Adjacency, added []graph.Edge, state []Value) []InitialEvent {
	return monotoneSeed(c, old, added, state, countDegreeDelta(added))
}

// SeedInsertions implements InsertionSeeder for PageRank-Delta. Adding
// out-edges to u rescales the flow u sends everywhere: each existing
// neighbor's contribution falls from α·r_u/d to α·r_u/d', and each new
// neighbor gains α·r_u/d'. Because the fixed-point equation is linear in
// the contributions, seeding these exact first-order differences and
// cascading through the ordinary propagate/reduce machinery converges to
// the exact new fixed point (up to the local threshold).
//
// Corrections are emitted for sources in their first-appearance order in
// added: the seed order is the order the solver sums them in, so any other
// order (a map range) would make the warm fixed point differ run to run in
// its last bits.
func (p *PageRankDelta) SeedInsertions(old graph.Adjacency, added []graph.Edge, state []Value) []InitialEvent {
	dd := countDegreeDelta(added)
	var out []InitialEvent
	seen := make(map[graph.VertexID]bool, len(dd))
	for _, e := range added {
		u := e.Src
		if seen[u] {
			continue
		}
		seen[u] = true
		dOld := old.OutDegree(u)
		if dOld == 0 {
			continue
		}
		// r_u's own retained rank is unchanged; only its outflow rescales.
		diff := p.Alpha * state[u] * (1/float64(dOld+dd[u]) - 1/float64(dOld))
		for _, v := range old.Neighbors(u) {
			out = append(out, InitialEvent{Vertex: v, Delta: diff})
		}
	}
	for _, e := range added {
		dNew := old.OutDegree(e.Src) + dd[e.Src]
		out = append(out, InitialEvent{
			Vertex: e.Dst,
			Delta:  p.Alpha * state[e.Src] / float64(dNew),
		})
	}
	return out
}

// warmStart wraps an algorithm so engines resume from a previous fixed
// point with externally supplied seed events instead of the cold-start
// initialization.
type warmStart struct {
	Algorithm
	state []Value
	seeds []InitialEvent
}

func (w *warmStart) InitState(v graph.VertexID) Value { return w.state[v] }

func (w *warmStart) InitialEvents(graph.Adjacency) []InitialEvent { return w.seeds }

// WarmStart returns alg reconfigured to resume from `state` with the given
// seed events. The wrapper preserves Progressor and WantsWeights behaviour
// of the inner algorithm through interface embedding.
func WarmStart(alg Algorithm, state []Value, seeds []InitialEvent) Algorithm {
	if p, ok := alg.(Progressor); ok {
		return &warmStartProg{warmStart{alg, state, seeds}, p}
	}
	return &warmStart{alg, state, seeds}
}

type warmStartProg struct {
	warmStart
	p Progressor
}

func (w *warmStartProg) Progress(old, new Value) float64 { return w.p.Progress(old, new) }

// IncrementalAfterInsert prepares the inputs for incrementally updating a
// converged computation after edge insertions: it builds the post-update
// graph and the warm-started algorithm. Run the returned algorithm over
// the returned graph on any engine; the fixed point equals a cold start on
// the new graph.
func IncrementalAfterInsert(alg Algorithm, old *graph.CSR, added []graph.Edge, state []Value) (*graph.CSR, Algorithm, error) {
	seeder, ok := alg.(InsertionSeeder)
	if !ok {
		return nil, nil, fmt.Errorf("algorithms: %s does not support incremental insertion", alg.Name())
	}
	if len(state) != old.NumVertices() {
		return nil, nil, fmt.Errorf("algorithms: state has %d entries for %d vertices", len(state), old.NumVertices())
	}
	seeds := seeder.SeedInsertions(old, added, state)
	edges := old.Edges()
	edges = append(edges, added...)
	newG, err := graph.FromEdges(old.NumVertices(), edges, old.Weighted() || weightsNeeded(alg))
	if err != nil {
		return nil, nil, err
	}
	warmState := append([]Value(nil), state...)
	return newG, WarmStart(alg, warmState, seeds), nil
}

func weightsNeeded(alg Algorithm) bool {
	w, ok := alg.(WantsWeights)
	return ok && w.WantsWeights()
}
