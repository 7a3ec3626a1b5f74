// Package psolve is the sharded parallel counterpart of the sequential
// worklist solver (algorithms.SolveCtx): the paper's event-driven execution
// model mapped onto host threads instead of simulated hardware queues.
//
// The vertex set is split into contiguous shards via internal/graph/partition
// (one shard per worker, boundaries refined to reduce the edge cut; aligned
// to the store's slices when the graph is a graph.Sliced out-of-core store).
// Each worker owns its shard's state and runs a private coalescing worklist —
// the serial solver's algorithms.Worklist over the shard plus a per-vertex
// accumulator, exactly the in-place event coalescing of paper Section IV-B,
// but per shard; on a sliced store the worklist sweeps the shard's slices one
// at a time (Section IV-F) and each activation reads its row with one
// Adjacency.Row call. Deltas for vertices owned by another worker are
// coalesced into a dense per-worker remote accumulator (one slot per vertex,
// reduced in place, with a dirty list per destination shard) and exchanged in
// batches over channels — the software analogue of the accelerator's
// inter-queue event routing.
//
// Termination is the paper's global check (Section IV-C) in software: a
// single atomic counter holds the number of running workers plus the
// batches in flight. A worker leaves the count only when it goes idle — its
// worklist empty and every dirty list flushed — and rejoins it before it
// integrates a batch received while idle; a batch enters the count before
// its channel send and leaves it after its owner has merged it. Neither
// the activation loop nor the per-edge pushes touch the counter, so it
// costs a few atomic adds per batch instead of one per queued entry, and
// it is zero exactly when every worker is idle and no batch is in flight;
// the goroutine that takes it to zero closes the done channel.
//
// A solve with one shard (Workers 1, or a partition of one slice) has no
// exchange and no termination to detect: it runs algorithms.SolveCtx and
// reports that solve's counters.
//
// Cancellation matches sim.ErrCanceled semantics: busy workers poll the
// context every ctxPollInterval activations, idle or blocked ones wait on
// it, and the first to observe cancellation stops the fleet, so a server
// deadline cancels a parallel solve, a serial solve, and a cycle-level
// simulation through one errors.Is check.
package psolve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/partition"
	"graphpulse/internal/sim"
)

// ctxPollInterval matches algorithms.SolveCtx and sim.Engine.RunUntil: a
// select per pop would dominate the loop, and wall-clock deadlines never
// need finer granularity.
const ctxPollInterval = 1024

// processChunk is how many local pops a worker performs between inbox
// drains, bounding the latency of cross-shard delta delivery without paying
// a channel poll per activation.
const processChunk = 64

// refinePasses is the number of partition boundary-refinement sweeps used
// to reduce the cross-shard edge cut.
const refinePasses = 1

// Config tunes the parallel solver. The zero value of every field selects
// the documented default.
type Config struct {
	// Workers is the shard/goroutine count (default GOMAXPROCS, clamped to
	// the vertex count — a 3-vertex graph never runs more than 3 workers).
	// One shard runs the serial solver, algorithms.SolveCtx.
	Workers int
	// BatchSize is the buffered remote-vertex count at which a worker flushes
	// its cross-shard deltas to their owners (default 256). Larger
	// batches coalesce more and message less; smaller batches cut the
	// latency of remote delta delivery.
	BatchSize int
	// NoRelabel is a no-op kept only because the frozen benchmark driver
	// (perf/wl_parallel.go) sets it: the degree-order relabeling pass it
	// used to disable measured slower than the cut edges it saved
	// (psolve.norelabel_vs_relabel_x 0.50–0.77) and is gone, so the solver
	// always shards the graph it is given. Nothing reads the field; it and
	// that benchmark row go in the next benchmark-definition change.
	NoRelabel bool
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{Workers: runtime.GOMAXPROCS(0), BatchSize: 256}
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	return c
}

// Result is the outcome of a parallel solve. Values agrees with the serial
// solver within conformance.Tolerance (exactly, for monotone min/max
// algorithms); the counters are the solver's observability surface,
// documented field by field in METRICS.md ("Parallel solver metrics") and
// read by the psolve.* rows of BENCHMARK.json.
type Result struct {
	// Values is the converged vertex state.
	Values []float64
	// Activations counts vertex updates performed across all workers
	// (WorkerActivations summed).
	Activations int64
	// Emitted counts propagated edge deltas across all workers.
	Emitted int64
	// Workers is the number of shards actually used.
	Workers int
	// WorkerActivations is the per-shard activation count; imbalance here
	// means a skewed partition.
	WorkerActivations []int64
	// CrossShardDeltas counts coalesced delta entries delivered between
	// shards over channels.
	CrossShardDeltas int64
	// CrossShardCoalesced counts remote deltas merged into an
	// already-buffered outbound entry instead of travelling on their own —
	// the software measure of the paper's in-flight event coalescing across
	// queue boundaries.
	CrossShardCoalesced int64
	// CrossShardBatches counts channel sends.
	CrossShardBatches int64
	// TerminationRounds sums each worker's local-quiescence episodes: how
	// often a worker drained its shard and went idle before new cross-shard
	// work arrived or the global counter hit zero.
	TerminationRounds int64
	// CutEdges is the partition edge cut: edges whose endpoints live in
	// different shards, each a potential cross-shard delta per propagation.
	CutEdges int
}

// delta is one (vertex, accumulated value) cross-shard message entry.
type delta struct {
	v graph.VertexID
	d float64
}

// batch is the unit of cross-shard exchange: one destination's dirty list,
// flushed from the sender's dense remote accumulator.
type batch []delta

// solver is the shared run state.
type solver struct {
	g     graph.Adjacency
	alg   algorithms.Algorithm
	cfg   Config
	ctx   context.Context
	part  *partition.Partitioning
	state []float64
	id    float64

	// ctxDone is ctx.Done(), or nil (never ready) when ctx is nil: the
	// channel idle and blocked workers wait on beside their inbox.
	ctxDone <-chan struct{}

	workers []*worker
	// spare recycles the backing arrays of integrated batches: on a skewed
	// graph a third of the edges cross shards, and a fresh batch per flush
	// was most of a solve's allocation. Sized to the batches that can be in
	// flight at once, so a full list only means the rest go to the GC.
	spare chan batch

	// outstanding counts running workers + batches sent but not yet
	// merged by their owner. Zero ⇔ global quiescence.
	outstanding atomic.Int64
	done        chan struct{}
	doneOnce    sync.Once

	stop     chan struct{}
	failOnce sync.Once
	err      error

	wg sync.WaitGroup
}

// worker owns the contiguous vertex shard [lo, hi).
type worker struct {
	idx    int
	lo, hi graph.VertexID

	// wl queues the shard's activated vertices (slice-ordered when the
	// graph is a sliced store); inList guarantees each owned vertex is
	// queued at most once.
	wl     *algorithms.Worklist
	inList []bool
	acc    []float64

	inbox chan batch
	// Remote-delta coalescing store: racc accumulates deltas headed to
	// other shards (indexed by global vertex id), rqueued marks buffered
	// vertices, and rdirty[dst] lists them per destination worker. Dense
	// arrays instead of maps: on skewed graphs half the edges can cross
	// shards, so the remote path must cost no more than a local push. The
	// price is O(n) memory per worker, O(workers × n) total.
	racc     []float64
	rqueued  []bool
	rdirty   [][]graph.VertexID
	outCount int

	activations, emitted               int64
	sentDeltas, sentBatches, coalesced int64
	rounds                             int64
}

// SolveCtx runs alg to convergence across cfg.Workers shards. When ctx is
// canceled the solve stops and returns an error wrapping sim.ErrCanceled. A
// nil ctx disables cancellation and never fails.
func SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	if n == 0 {
		return &Result{Values: []float64{}}, nil
	}
	if cfg.Workers == 1 {
		return serial(ctx, g, alg)
	}

	part, err := shard(g, cfg)
	if err != nil {
		return nil, err
	}
	w := part.NumSlices()
	if w == 1 {
		return serial(ctx, g, alg)
	}

	s := &solver{
		g:     g,
		alg:   alg,
		cfg:   cfg,
		ctx:   ctx,
		part:  part,
		state: make([]float64, n),
		id:    alg.Identity(),
		done:  make(chan struct{}),
		stop:  make(chan struct{}),
		spare: make(chan batch, 4*w*w),
	}
	if ctx != nil {
		s.ctxDone = ctx.Done()
	}
	s.outstanding.Store(int64(w)) // every worker starts running
	for v := 0; v < n; v++ {
		s.state[v] = alg.InitState(graph.VertexID(v))
	}
	s.workers = make([]*worker, w)
	for i, sl := range part.Slices {
		size := sl.NumVertices()
		wk := &worker{
			idx:     i,
			lo:      sl.Lo,
			hi:      sl.Hi,
			wl:      algorithms.NewWorklist(g, sl.Lo, sl.Hi),
			inList:  make([]bool, size),
			acc:     make([]float64, size),
			inbox:   make(chan batch, 4*w),
			racc:    make([]float64, n),
			rqueued: make([]bool, n),
			rdirty:  make([][]graph.VertexID, w),
		}
		for j := range wk.acc {
			wk.acc[j] = s.id
		}
		for j := range wk.racc {
			wk.racc[j] = s.id
		}
		s.workers[i] = wk
	}

	// Seed the shards single-threaded, before any worker starts.
	for _, ev := range alg.InitialEvents(g) {
		wk := s.workers[part.SliceOf(ev.Vertex)]
		wk.pushLocal(s, ev.Vertex, ev.Delta)
	}

	for _, wk := range s.workers {
		s.wg.Add(1)
		go wk.run(s)
	}
	s.wg.Wait()
	if s.err != nil {
		return nil, s.err
	}

	// Fold retained sub-threshold residuals into the converged state — the
	// serial solver absorbs those fragments at activation time; here they
	// were held back for coalescing (see processChunk) and land now.
	for _, wk := range s.workers {
		for off, a := range wk.acc {
			if a != s.id {
				v := wk.lo + graph.VertexID(off)
				s.state[v] = alg.Reduce(s.state[v], a)
			}
		}
	}

	res := &Result{
		Values:            s.state,
		Workers:           w,
		WorkerActivations: make([]int64, w),
		CutEdges:          part.CutEdges,
	}
	for i, wk := range s.workers {
		res.WorkerActivations[i] = wk.activations
		res.Activations += wk.activations
		res.Emitted += wk.emitted
		res.CrossShardDeltas += wk.sentDeltas
		res.CrossShardCoalesced += wk.coalesced
		res.CrossShardBatches += wk.sentBatches
		res.TerminationRounds += wk.rounds
	}
	return res, nil
}

// serial runs a one-shard solve. With no shard boundary there is nothing
// to exchange and no quiescence to detect, so the serial solver runs
// as-is and its counters are reported as the one worker's.
func serial(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*Result, error) {
	res, err := algorithms.SolveCtx(ctx, g, alg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Values:            res.Values,
		Activations:       res.Activations,
		Emitted:           res.Emitted,
		Workers:           1,
		WorkerActivations: []int64{res.Activations},
	}, nil
}

// shard builds the worker partitioning for g: aligned to the store's own
// slice boundaries when g is an out-of-core graph.Sliced store (so each
// worker's shard maps onto whole resident slices), a refined contiguous
// split otherwise.
func shard(g graph.Adjacency, cfg Config) (*partition.Partitioning, error) {
	if bounds := graph.SliceBoundaries(g); bounds != nil {
		return alignedPartitioning(g, bounds, cfg.Workers), nil
	}
	part, err := partition.Split(g, cfg.Workers, refinePasses)
	if err != nil {
		return nil, fmt.Errorf("psolve: %w", err)
	}
	return part, nil
}

// alignedPartitioning groups consecutive store slices into up to workers
// contiguous shards. Store slices are already vertex-balanced (they come from
// partition.Split at pack time), so grouping by index stays balanced. bounds
// must be a usable list (graph.SliceBoundaries).
func alignedPartitioning(g graph.Adjacency, bounds []graph.VertexID, workers int) *partition.Partitioning {
	k := len(bounds) - 1
	if workers > k {
		workers = k
	}
	p := &partition.Partitioning{Slices: make([]partition.Slice, workers)}
	for i := 0; i < workers; i++ {
		p.Slices[i] = partition.Slice{Lo: bounds[i*k/workers], Hi: bounds[(i+1)*k/workers]}
	}
	p.CutEdges = partition.Cut(g, p)
	return p
}

// fail records the first error and stops the fleet.
func (s *solver) fail(err error) {
	s.failOnce.Do(func() {
		s.err = err
		close(s.stop)
	})
}

// finish takes one unit (a running worker or an in-flight batch) off the
// termination counter; the goroutine that takes it to zero announces global
// quiescence. Zero is final: only a running worker sends a batch, and an
// idle worker rejoins only while the batch it received is still counted.
func (s *solver) finish() {
	if s.outstanding.Add(-1) == 0 {
		s.doneOnce.Do(func() { close(s.done) })
	}
}

// canceled reports whether the fleet is stopping, polling ctx.
func (s *solver) canceled(w *worker) bool {
	select {
	case <-s.stop:
		return true
	case <-s.ctxDone:
		s.cancel(w)
		return true
	default:
		return false
	}
}

// cancel stops the fleet with ctx's error, naming the worker that saw it.
func (s *solver) cancel(w *worker) {
	s.fail(fmt.Errorf("%w after %d activations on worker %d: %v",
		sim.ErrCanceled, w.activations, w.idx, s.ctx.Err()))
}

// pushLocal coalesces a delta into an owned vertex and enqueues it if not
// already queued. Called only by the owning worker (or single-threaded
// seeding).
func (w *worker) pushLocal(s *solver, v graph.VertexID, d float64) {
	off := v - w.lo
	w.acc[off] = s.alg.Reduce(w.acc[off], d)
	if !w.inList[off] {
		w.inList[off] = true
		w.wl.Push(v)
	}
}

// bufferRemote coalesces a delta headed to another shard into the dense
// remote accumulator and records the vertex on the destination's dirty list.
func (w *worker) bufferRemote(s *solver, dst int, v graph.VertexID, d float64) {
	if w.rqueued[v] {
		w.racc[v] = s.alg.Reduce(w.racc[v], d)
		w.coalesced++
		return
	}
	w.rqueued[v] = true
	w.racc[v] = d // slot holds the identity between flushes
	w.rdirty[dst] = append(w.rdirty[dst], v)
	w.outCount++
}

// integrate merges a received batch into the local worklist, then retires
// the batch from the termination counter (its sender counted it before the
// send). The channel send handed b over, so its backing array goes back to
// the spare list for the next flush of any worker.
func (w *worker) integrate(s *solver, b batch) {
	for _, e := range b {
		w.pushLocal(s, e.v, e.d)
	}
	s.finish()
	select {
	case s.spare <- b[:0]:
	default:
	}
}

// send delivers a batch to dst, draining the worker's own inbox while
// blocked so that two mutually-sending workers can never deadlock. Returns
// false when the fleet is stopping.
func (w *worker) send(s *solver, dst int, b batch) bool {
	ch := s.workers[dst].inbox
	for {
		select {
		case ch <- b:
			return true
		case in := <-w.inbox:
			w.integrate(s, in)
		case <-s.stop:
			return false
		case <-s.ctxDone:
			s.cancel(w)
			return false
		}
	}
}

// flushAll ships every non-empty dirty list to its owner, resetting the
// flushed accumulator slots to the identity.
func (w *worker) flushAll(s *solver) bool {
	for dst := range w.rdirty {
		dirty := w.rdirty[dst]
		if len(dirty) == 0 {
			continue
		}
		var b batch
		select {
		case b = <-s.spare:
		default:
		}
		if cap(b) < len(dirty) {
			b = make(batch, 0, len(dirty))
		}
		for _, v := range dirty {
			b = append(b, delta{v, w.racc[v]})
			w.racc[v] = s.id
			w.rqueued[v] = false
		}
		w.rdirty[dst] = dirty[:0]
		w.outCount -= len(b)
		w.sentDeltas += int64(len(b))
		w.sentBatches++
		s.outstanding.Add(1)
		if !w.send(s, dst, b) {
			return false
		}
	}
	return true
}

// processChunk pops and activates up to processChunk owned vertices,
// propagating along out-edges: local destinations go straight back into the
// worklist, remote ones into the dense remote accumulator. Returns false
// when the fleet is stopping.
func (w *worker) processChunk(s *solver) bool {
	for i := 0; i < processChunk && w.wl.Len() > 0; i++ {
		if w.activations%ctxPollInterval == 0 && s.canceled(w) {
			return false
		}
		v := w.wl.Pop()
		off := v - w.lo
		w.inList[off] = false
		d := w.acc[off]
		old := s.state[v]
		next := s.alg.Reduce(old, d)
		w.activations++
		if !s.alg.Changed(old, next) {
			// Retain the sub-threshold delta in the accumulator instead of
			// absorbing it unpropagated: cross-shard batching fragments what
			// the serial schedule would deliver as one delta, and dropping
			// each fragment would lose more propagation mass than serial
			// does. The residual coalesces with the next arriving delta (or
			// folds into state at termination), keeping sum-based
			// algorithms within the serial solver's tolerance band.
			continue
		}
		s.state[v] = next
		w.acc[off] = s.id
		row, weights := s.g.Row(v)
		for j, dst := range row {
			wt := float32(1)
			if weights != nil {
				wt = weights[j]
			}
			out := s.alg.Propagate(d, algorithms.EdgeContext{
				Src: v, Dst: dst, Weight: wt, SrcOutDegree: len(row),
			})
			w.emitted++
			if dst >= w.lo && dst < w.hi {
				w.pushLocal(s, dst, out)
			} else {
				w.bufferRemote(s, s.part.SliceOf(dst), dst, out)
			}
		}
		if w.outCount >= s.cfg.BatchSize {
			if !w.flushAll(s) {
				return false
			}
		}
	}
	return true
}

// run is the worker main loop: drain inbox, process a chunk, flush on local
// quiescence, then go idle until cross-shard work arrives or the fleet
// terminates.
func (w *worker) run(s *solver) {
	defer s.wg.Done()
	worked := false
	for {
		// Merge every delivered batch before the next chunk so remote
		// deltas coalesce with queued local ones instead of re-activating.
		for {
			select {
			case b := <-w.inbox:
				w.integrate(s, b)
				continue
			default:
			}
			break
		}
		if w.wl.Len() > 0 {
			if !w.processChunk(s) {
				return
			}
			worked = true
			continue
		}
		// Local quiescence: everything buffered must reach its owner before
		// this worker may idle, or the counter could reach zero with work
		// still parked here.
		if !w.flushAll(s) {
			return
		}
		if w.wl.Len() > 0 {
			// send() integrated inbound batches while flushing.
			continue
		}
		if worked {
			w.rounds++
			worked = false
		}
		s.finish()
		select {
		case b := <-w.inbox:
			// Rejoin before merging: the batch still holds its own unit,
			// so the counter stays above zero in between.
			s.outstanding.Add(1)
			w.integrate(s, b)
		case <-s.done:
			return
		case <-s.stop:
			return
		case <-s.ctxDone:
			s.cancel(w)
			return
		}
	}
}
