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
	if s.err != nil {
		return nil, s.err
	}
	res := s.res
	res.Values = s.state
	return &res, nil
}

// solver is one solve's working set: the vertex state, the delta pending
// at each vertex (acc) and whether the vertex is queued (inList). The
// reference loop and the kernel loop share it, and with it the
// initialization, the worklist order and the cancellation polling.
type solver struct {
	ctx    context.Context
	g      graph.Adjacency
	csr    *graph.CSR // g when it is an in-RAM CSR, else nil
	state  []Value
	acc    []Value
	inList []bool
	wl     *Worklist
	res    SolveResult
	err    error
}

// init sets the state from alg's InitState and every pending delta to
// alg's identity, and queues alg's initial events. A warm start's
// InitState and InitialEvents come from the wrapper, so warm and cone
// restarts begin exactly where the wrapper says.
func (s *solver) init(ctx context.Context, g graph.Adjacency, alg Algorithm) {
	n := g.NumVertices()
	*s = solver{
		ctx:    ctx,
		g:      g,
		state:  make([]Value, n),
		acc:    make([]Value, n),
		inList: make([]bool, n),
		wl:     NewWorklist(g, 0, graph.VertexID(n)),
	}
	s.csr, _ = g.(*graph.CSR)
	id := alg.Identity()
	for v := 0; v < n; v++ {
		s.state[v] = alg.InitState(graph.VertexID(v))
		s.acc[v] = id
	}
	for _, ev := range alg.InitialEvents(g) {
		s.acc[ev.Vertex] = alg.Reduce(s.acc[ev.Vertex], ev.Delta)
		s.enqueue(ev.Vertex)
	}
}

// enqueue queues v unless it is already queued.
func (s *solver) enqueue(v graph.VertexID) {
	if !s.inList[v] {
		s.inList[v] = true
		s.wl.Push(v)
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
	s.inList[v] = false
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
// CSR, or through one Row call on any other graph.Adjacency.
func (s *solver) row(v graph.VertexID) ([]graph.VertexID, []float32) {
	if s.csr != nil {
		return s.csr.Row(v)
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
			s.enqueue(d)
		}
	}
}
