package algorithms

import (
	"context"
	"fmt"
	"runtime"

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
// per-vertex coalescing and a Worklist queue, the occupancy bit-vector
// drained in ascending rounds, slice by slice (Section IV-F) on
// out-of-core stores. It is exact (not approximate) given the algorithm's
// algebraic laws, and serves as the golden model that every engine
// (accelerator, Ligra-style, Graphicionado-style) is tested against.
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
//
// The algorithm is resolved once per solve: every algorithm of the ByName
// table, bare or behind a warm start, runs one loop over a (reduce,
// edge-op) table (kernels.go). Any other Algorithm runs the interface
// loop, which is also the reference that loop is tested against bit for
// bit.
func SolveCtx(ctx context.Context, g graph.Adjacency, alg Algorithm) (*SolveResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return &SolveResult{Values: []Value{}}, nil
	}
	var s solver
	s.init(ctx, g, alg)
	if k, ok := kernelFor(alg); ok {
		s.run(k)
	} else {
		s.reference(alg)
	}
	select {
	case accFree <- s.acc:
	default:
	}
	if s.err != nil {
		return nil, s.err
	}
	res := s.res
	res.Values = s.state
	return &res, nil
}

// solver is one solve's working set: the vertex state, the delta pending
// at each vertex (acc) and the worklist of queued vertices. The reference
// loop and the kernel loop share it, and with it the
// initialization, the worklist order and the cancellation polling.
type solver struct {
	ctx   context.Context
	g     graph.Adjacency
	csr   *graph.CSR   // g when it is an in-RAM CSR, else nil
	paged *graph.Paged // g when it is a mutated graph's paged epoch, else nil
	state []Value
	acc   []Value
	wl    *Worklist
	res   SolveResult
	err   error

	// g when it is an out-of-core Sliced store, else nil, and the slice
	// read last: rows holds the rows of [lo, lo+n).
	sliced graph.Sliced
	lo, n  graph.VertexID
	rows   *graph.CSR
}

// accFree recycles pending-delta arrays, one per processor (as many solves
// as run at once), where a sync.Pool would drop some under the race
// detector and TestSolveAllocations' count with them.
var accFree = make(chan []Value, runtime.GOMAXPROCS(0))

// init sets the state from alg's InitState (in one copy from a warm start's
// prior state), every pending delta to alg's identity in a recycled array,
// and queues alg's initial events, which a warm start's wrapper supplies.
func (s *solver) init(ctx context.Context, g graph.Adjacency, alg Algorithm) {
	n := g.NumVertices()
	var acc []Value
	select {
	case acc = <-accFree:
	default:
	}
	if cap(acc) < n {
		acc = make([]Value, n)
	}
	*s = solver{
		ctx:   ctx,
		g:     g,
		state: make([]Value, n),
		acc:   acc[:n],
		wl:    NewWorklist(g, 0, graph.VertexID(n)),
	}
	s.csr, _ = g.(*graph.CSR)
	s.paged, _ = g.(*graph.Paged)
	s.sliced, _ = g.(graph.Sliced)
	switch w := alg.(type) {
	case *warmStart:
		copy(s.state, w.state[:n])
	case *warmStartProg:
		copy(s.state, w.state[:n])
	default:
		for v := range s.state {
			s.state[v] = alg.InitState(graph.VertexID(v))
		}
	}
	id := alg.Identity()
	for v := range s.acc {
		s.acc[v] = id
	}
	for _, ev := range alg.InitialEvents(g) {
		s.acc[ev.Vertex] = alg.Reduce(s.acc[ev.Vertex], ev.Delta)
		s.wl.Push(ev.Vertex)
	}
}

// more reports whether a vertex is left to activate: false once the
// worklist is empty or ctx was canceled, which sets s.err. It stays within
// the inliner's budget, since run calls it once per activation.
func (s *solver) more() bool {
	return s.wl.Len() > 0 && !(s.res.Activations%ctxPollInterval == 0 && s.canceled())
}

// next pops the vertex to activate and counts the activation. It reports
// false when there is none left (see more).
func (s *solver) next() (graph.VertexID, bool) {
	if !s.more() {
		return 0, false
	}
	v := s.wl.Pop()
	s.res.Activations++
	return v, true
}

// canceled reports whether ctx is done, recording the error in s.err. A
// nil ctx is never done.
func (s *solver) canceled() bool {
	if s.ctx == nil {
		return false
	}
	select {
	case <-s.ctx.Done():
		s.err = fmt.Errorf("%w after %d activations: %v", sim.ErrCanceled, s.res.Activations, s.ctx.Err())
		return true
	default:
		return false
	}
}

// row returns v's out-edges: read straight from the arrays of an in-RAM
// CSR or a paged epoch, from the rows of v's slice on a Sliced store, or
// through one Row call on any other graph.Adjacency. A Sliced store is
// asked for v's slice only when v leaves the slice read last, about once
// per visit, since the worklist pops a visit's vertices from one slice.
func (s *solver) row(v graph.VertexID) ([]graph.VertexID, []float32) {
	if s.csr != nil {
		return s.csr.Row(v)
	}
	if s.paged != nil {
		return s.paged.Row(v)
	}
	if s.sliced != nil {
		if v-s.lo >= s.n { // v < lo wraps past n
			s.lo, s.rows = s.sliced.Slice(v)
			s.n = graph.VertexID(s.rows.NumVertices())
		}
		return s.rows.Row(v - s.lo)
	}
	return s.g.Row(v)
}

// reference is the interface loop: Reduce, Propagate and Changed are
// called per edge through alg. It runs every algorithm outside the ByName
// table, and the kernel loop must match it bit for bit.
func (s *solver) reference(alg Algorithm) {
	state, acc := s.state, s.acc
	id := alg.Identity()
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = id
		old := state[v]
		next := alg.Reduce(old, delta)
		state[v] = next
		if !alg.Changed(old, next) {
			continue
		}
		dst, weights := s.row(v)
		deg := len(dst)
		for i, d := range dst {
			w := float32(1)
			if weights != nil {
				w = weights[i]
			}
			out := alg.Propagate(delta, EdgeContext{
				Src: v, Dst: d, Weight: w, SrcOutDegree: deg,
			})
			s.res.Emitted++
			acc[d] = alg.Reduce(acc[d], out)
			s.wl.Push(d)
		}
	}
}
