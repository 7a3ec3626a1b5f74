package algorithms

import (
	"context"
	"fmt"

	"graphpulse/internal/graph"
	"graphpulse/internal/sim"
)

// SolveResult is the output of the reference solver.
type SolveResult struct {
	// Values is the converged vertex state.
	Values []Value
	// Activations counts vertex updates performed (popped work items).
	Activations int64
	// Emitted counts propagated edge deltas.
	Emitted int64
}

// ctxPollInterval is how many worklist pops elapse between context checks,
// mirroring sim.Engine.RunUntil's polling: a select per pop would dominate
// the loop, and wall-clock deadlines never need finer granularity.
const ctxPollInterval = 1024

// Solve runs alg to convergence with a sequential vertex-coalescing
// worklist — the software embodiment of Algorithm 1 from the paper with
// per-vertex coalescing and a Worklist queue: a FIFO for in-RAM graphs, a
// slice-by-slice sweep (Section IV-F) for out-of-core stores. It is exact
// (not approximate) given the algorithm's algebraic laws, and serves as the
// golden model that every engine (accelerator, Ligra-style,
// Graphicionado-style) is tested against.
func Solve(g graph.Adjacency, alg Algorithm) *SolveResult {
	res, _ := SolveCtx(nil, g, alg)
	return res
}

// SolveCtx runs like Solve with wall-clock cancellation: when ctx is
// canceled the solve stops and returns an error wrapping sim.ErrCanceled,
// the same sentinel the simulated engines return from RunUntil — so a
// server deadline cancels a native solve and a cycle-level simulation
// through one errors.Is check. A nil ctx disables cancellation and never
// fails.
func SolveCtx(ctx context.Context, g graph.Adjacency, alg Algorithm) (*SolveResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return &SolveResult{Values: []Value{}}, nil
	}
	state := make([]Value, n)
	acc := make([]Value, n)
	inList := make([]bool, n)
	id := alg.Identity()
	for v := 0; v < n; v++ {
		state[v] = alg.InitState(graph.VertexID(v))
		acc[v] = id
	}
	wl := NewWorklist(g, 0, graph.VertexID(n))
	push := func(v graph.VertexID, d Value) {
		acc[v] = alg.Reduce(acc[v], d)
		if !inList[v] {
			inList[v] = true
			wl.Push(v)
		}
	}
	for _, ev := range alg.InitialEvents(g) {
		push(ev.Vertex, ev.Delta)
	}
	res := &SolveResult{}
	for wl.Len() > 0 {
		if ctx != nil && res.Activations%ctxPollInterval == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("%w after %d activations: %v", sim.ErrCanceled, res.Activations, ctx.Err())
			default:
			}
		}
		v := wl.Pop()
		inList[v] = false
		delta := acc[v]
		acc[v] = id
		old := state[v]
		next := alg.Reduce(old, delta)
		state[v] = next
		res.Activations++
		if !alg.Changed(old, next) {
			continue
		}
		dst, weights := g.Row(v)
		deg := len(dst)
		for i, d := range dst {
			w := float32(1)
			if weights != nil {
				w = weights[i]
			}
			out := alg.Propagate(delta, EdgeContext{
				Src: v, Dst: d, Weight: w, SrcOutDegree: deg,
			})
			res.Emitted++
			push(d, out)
		}
	}
	res.Values = state
	return res, nil
}
