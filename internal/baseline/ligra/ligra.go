// Package ligra implements a Ligra-style shared-memory graph-processing
// framework (Shun & Blelloch, PPoPP'13) — the software baseline of the
// paper's evaluation. It provides the frontier (vertexSubset) + EdgeMap
// abstraction with direction-optimizing traversal: sparse frontiers push
// along out-edges with atomic (CAS) accumulation, dense frontiers pull
// along in-edges without atomics.
//
// The engine runs natively on the host (goroutines + atomics), so its
// timing is wall-clock, not simulated cycles. It also classifies its memory
// operations (random/sequential, atomic) to reproduce the paper's Table I
// access-pattern comparison.
//
// The same delta-accumulative Algorithm definitions drive this engine and
// the accelerator model, so converged values are directly comparable.
package ligra

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// AccessStats counts memory operations by kind, matching the Table I
// classification of the Push and Pull models.
type AccessStats struct {
	RandomReads      int64
	RandomWrites     int64
	SequentialReads  int64
	SequentialWrites int64
	AtomicUpdates    int64
}

func (s *AccessStats) add(o *AccessStats) {
	s.RandomReads += o.RandomReads
	s.RandomWrites += o.RandomWrites
	s.SequentialReads += o.SequentialReads
	s.SequentialWrites += o.SequentialWrites
	s.AtomicUpdates += o.AtomicUpdates
}

// Config tunes the framework.
type Config struct {
	// Threads is the worker count (defaults to GOMAXPROCS). The paper's
	// software baseline is a 12-core Xeon.
	Threads int
	// DenseThreshold is Ligra's switch to pull traversal when the frontier
	// touches more than |E|/DenseThreshold edges (Ligra's default is 20).
	DenseThreshold int
	// Direction forces a traversal mode; Auto is Ligra's
	// direction-optimization.
	Direction Direction
	// MaxIterations bounds the BSP loop as a safety net.
	MaxIterations int
}

// Direction selects the traversal mode.
type Direction int

// Traversal modes.
const (
	Auto Direction = iota
	PushOnly
	PullOnly
)

// DefaultConfig mirrors Ligra's published defaults.
func DefaultConfig() Config {
	return Config{
		Threads:        runtime.GOMAXPROCS(0),
		DenseThreshold: 20,
		MaxIterations:  1_000_000,
	}
}

// Result is the outcome of a run.
type Result struct {
	Values     []float64
	Iterations int
	// VertexUpdates counts per-vertex delta applications across all
	// iterations (the frontier sizes summed) — the BSP analogue of the
	// worklist solver's activation count.
	VertexUpdates int64
	// EdgesTraversed counts edge relaxations across all iterations.
	EdgesTraversed int64
	// PushIterations/PullIterations count the direction decisions.
	PushIterations int
	PullIterations int
	Access         AccessStats
}

// Engine runs delta-accumulative algorithms under the BSP frontier model.
type Engine struct {
	cfg Config
	g   *graph.CSR
	tr  *graph.CSR // transpose, built lazily for pull traversal
}

// New creates an engine over g.
func New(cfg Config, g *graph.CSR) *Engine {
	if cfg.Threads < 1 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	if cfg.DenseThreshold < 1 {
		cfg.DenseThreshold = 20
	}
	if cfg.MaxIterations < 1 {
		cfg.MaxIterations = 1_000_000
	}
	return &Engine{cfg: cfg, g: g}
}

// transpose returns the cached reverse graph (pull direction needs it; the
// build cost is charged to setup, as in Ligra, which loads both directions).
func (e *Engine) transpose() *graph.CSR {
	if e.tr == nil {
		e.tr = e.g.Transpose()
	}
	return e.tr
}

// accumulator is the per-vertex delta store. Values are IEEE-754 bit
// patterns so the push direction can CAS-combine without locks.
type accumulator struct {
	bits []uint64
	id   uint64
}

func newAccumulator(n int, identity float64) *accumulator {
	a := &accumulator{bits: make([]uint64, n), id: math.Float64bits(identity)}
	for i := range a.bits {
		a.bits[i] = a.id
	}
	return a
}

func (a *accumulator) get(v graph.VertexID) float64 {
	return math.Float64frombits(a.bits[v])
}

// take returns the accumulated delta and resets the cell (single-threaded
// phases only).
func (a *accumulator) take(v graph.VertexID) float64 {
	d := math.Float64frombits(a.bits[v])
	a.bits[v] = a.id
	return d
}

// reduceAtomic CAS-combines delta into cell v (the push direction's atomic
// update; "these updates must be performed via atomic operations").
func (a *accumulator) reduceAtomic(v graph.VertexID, delta float64, reduce func(x, y float64) float64) {
	for {
		cur := atomic.LoadUint64(&a.bits[v])
		next := math.Float64bits(reduce(math.Float64frombits(cur), delta))
		if next == cur || atomic.CompareAndSwapUint64(&a.bits[v], cur, next) {
			return
		}
	}
}

// reduceLocal combines without atomicity (pull direction: each destination
// is owned by exactly one worker).
func (a *accumulator) reduceLocal(v graph.VertexID, delta float64, reduce func(x, y float64) float64) {
	a.bits[v] = math.Float64bits(reduce(math.Float64frombits(a.bits[v]), delta))
}

// Run executes alg to convergence under the BSP model. Each iteration:
//  1. VertexMap over the frontier: apply accumulated deltas, keep changed
//     vertices (their applied delta is what propagates).
//  2. EdgeMap: push (sparse) or pull (dense) the deltas to neighbors,
//     building the next frontier.
func (e *Engine) Run(alg algorithms.Algorithm) *Result {
	n := e.g.NumVertices()
	res := &Result{}
	state := make([]float64, n)
	for v := 0; v < n; v++ {
		state[v] = alg.InitState(graph.VertexID(v))
	}
	acc := newAccumulator(n, alg.Identity())
	applied := make([]float64, n) // delta applied this iteration, per changed vertex
	inNext := make([]int32, n)

	frontier := make([]graph.VertexID, 0, n)
	seen := make([]bool, n)
	for _, ev := range alg.InitialEvents(e.g) {
		acc.reduceLocal(ev.Vertex, ev.Delta, alg.Reduce)
		if !seen[ev.Vertex] {
			seen[ev.Vertex] = true
			frontier = append(frontier, ev.Vertex)
		}
	}

	for iter := 0; iter < e.cfg.MaxIterations && len(frontier) > 0; iter++ {
		res.Iterations++
		res.VertexUpdates += int64(len(frontier))
		// Phase 1: apply deltas, filter to changed vertices.
		changed := frontier[:0]
		var frontierEdges int64
		for _, v := range frontier {
			delta := acc.take(v)
			old := state[v]
			next := alg.Reduce(old, delta)
			state[v] = next
			res.Access.RandomReads++
			res.Access.RandomWrites++
			if alg.Changed(old, next) {
				applied[v] = delta
				changed = append(changed, v)
				frontierEdges += int64(e.g.OutDegree(v))
			}
		}
		frontier = changed
		if len(frontier) == 0 {
			break
		}
		// Phase 2: EdgeMap with direction optimization.
		dense := e.cfg.Direction == PullOnly ||
			(e.cfg.Direction == Auto &&
				frontierEdges+int64(len(frontier)) > int64(e.g.NumEdges())/int64(e.cfg.DenseThreshold))
		var next []graph.VertexID
		if dense {
			res.PullIterations++
			next = e.edgeMapDense(alg, frontier, applied, acc, inNext, res)
		} else {
			res.PushIterations++
			next = e.edgeMapSparse(alg, frontier, applied, acc, inNext, res)
		}
		for _, v := range next {
			inNext[v] = 0
		}
		frontier = append(frontier[:0], next...)
	}
	res.Values = state
	return res
}

// parallelChunks runs fn over [0,total) split across the configured workers.
func (e *Engine) parallelChunks(total int, fn func(worker, lo, hi int)) {
	workers := e.cfg.Threads
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		fn(0, 0, total)
		return
	}
	var wg sync.WaitGroup
	chunk := (total + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= total {
			break
		}
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// edgeMapSparse is the push direction: parallel over frontier vertices,
// CAS-combining propagated deltas into destination accumulators — the
// random atomic writes of Table I's Push column.
func (e *Engine) edgeMapSparse(alg algorithms.Algorithm, frontier []graph.VertexID,
	applied []float64, acc *accumulator, inNext []int32, res *Result) []graph.VertexID {

	workers := e.cfg.Threads
	lists := make([][]graph.VertexID, workers)
	stats := make([]AccessStats, workers)
	var traversed int64
	e.parallelChunks(len(frontier), func(w, lo, hi int) {
		var st AccessStats
		var local []graph.VertexID
		var edges int64
		for _, v := range frontier[lo:hi] {
			deg := e.g.OutDegree(v)
			weights := e.g.NeighborWeights(v)
			st.SequentialReads += int64(deg)
			for i, d := range e.g.Neighbors(v) {
				wt := float32(1)
				if weights != nil {
					wt = weights[i]
				}
				out := alg.Propagate(applied[v], algorithms.EdgeContext{
					Src: v, Dst: d, Weight: wt, SrcOutDegree: deg,
				})
				acc.reduceAtomic(d, out, alg.Reduce)
				st.AtomicUpdates++
				st.RandomWrites++
				edges++
				if atomic.CompareAndSwapInt32(&inNext[d], 0, 1) {
					local = append(local, d)
				}
			}
		}
		lists[w] = local
		stats[w] = st
		atomic.AddInt64(&traversed, edges)
	})
	var next []graph.VertexID
	for w := range lists {
		next = append(next, lists[w]...)
		res.Access.add(&stats[w])
	}
	res.EdgesTraversed += traversed
	return next
}

// edgeMapDense is the pull direction: parallel over all destination
// vertices, each worker scanning its vertices' in-edges and reading source
// deltas — the random reads of Table I's Pull column. No atomics are
// needed because each destination is owned by one worker.
func (e *Engine) edgeMapDense(alg algorithms.Algorithm, frontier []graph.VertexID,
	applied []float64, acc *accumulator, inNext []int32, res *Result) []graph.VertexID {

	tr := e.transpose()
	n := e.g.NumVertices()
	inFrontier := make([]bool, n)
	for _, v := range frontier {
		inFrontier[v] = true
	}
	workers := e.cfg.Threads
	lists := make([][]graph.VertexID, workers)
	stats := make([]AccessStats, workers)
	var traversed int64
	e.parallelChunks(n, func(w, lo, hi int) {
		var st AccessStats
		var local []graph.VertexID
		var edges int64
		for v := lo; v < hi; v++ {
			dst := graph.VertexID(v)
			weights := tr.NeighborWeights(dst)
			touched := false
			st.SequentialReads += int64(len(tr.Neighbors(dst)))
			for i, src := range tr.Neighbors(dst) {
				st.RandomReads++ // read of the source's state/delta
				if !inFrontier[src] {
					continue
				}
				wt := float32(1)
				if weights != nil {
					wt = weights[i]
				}
				out := alg.Propagate(applied[src], algorithms.EdgeContext{
					Src: src, Dst: dst, Weight: wt, SrcOutDegree: e.g.OutDegree(src),
				})
				acc.reduceLocal(dst, out, alg.Reduce)
				edges++
				touched = true
			}
			if touched {
				st.RandomWrites++
				if atomic.CompareAndSwapInt32(&inNext[dst], 0, 1) {
					local = append(local, dst)
				}
			}
		}
		lists[w] = local
		stats[w] = st
		atomic.AddInt64(&traversed, edges)
	})
	var next []graph.VertexID
	for w := range lists {
		next = append(next, lists[w]...)
		res.Access.add(&stats[w])
	}
	res.EdgesTraversed += traversed
	return next
}
