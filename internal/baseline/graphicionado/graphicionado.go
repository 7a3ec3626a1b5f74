// Package graphicionado models Graphicionado (Ham et al., MICRO'16), the
// hardware baseline of the paper's evaluation: a Bulk-Synchronous
// vertex-centric accelerator with parallel edge-processing streams.
//
// The model follows the GraphPulse authors' re-implementation choices
// (Section VI-A), which are generous to Graphicionado:
//
//   - unlimited on-chip memory for the temporary (destination) update
//     buffer, so scatter updates never spill,
//   - zero-cost active-set management,
//   - the same DRAM subsystem as GraphPulse (4 × DDR3 channels).
//
// Off-chip traffic per BSP iteration, as in the original design:
//
//   - the source-oriented processing phase streams each active vertex's
//     property record and its out-edge list from DRAM (sequential in CSR
//     order through parallel streams with prefetch), and
//   - the apply phase streams the touched vertices' property records
//     back-to-back, reading and writing each once.
//
// Its disadvantages versus GraphPulse are structural, exactly as in the
// paper: synchronous BSP convergence (no lookahead, no coalescing across
// iterations), a barrier per iteration, and re-streaming vertex + edge data
// every iteration a vertex is active.
package graphicionado

import (
	"context"
	"fmt"
	"slices"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/mem"
	"graphpulse/internal/sim"
	"graphpulse/internal/sim/telemetry"
)

// Config sizes the model.
type Config struct {
	// Streams is the number of parallel edge-processing pipelines (8, to
	// match the GraphPulse configuration's memory parallelism).
	Streams int
	// PrefetchLines is the sequential prefetch depth per stream.
	PrefetchLines int
	// Memory configures the shared DRAM model.
	Memory mem.Config
	// ClockHz converts cycles to seconds (1 GHz).
	ClockHz float64
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
	// MaxIterations bounds the BSP loop.
	MaxIterations int
	// Telemetry enables time-resolved sampling (frontier size, edge
	// throughput, DRAM traffic) into Result.Telemetry; see METRICS.md.
	Telemetry telemetry.Config
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		Streams:       8,
		PrefetchLines: 4,
		Memory:        mem.DefaultConfig(),
		ClockHz:       1e9,
		MaxCycles:     5_000_000_000,
		MaxIterations: 1_000_000,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Streams < 1:
		return fmt.Errorf("graphicionado: Streams=%d", c.Streams)
	case c.PrefetchLines < 1:
		return fmt.Errorf("graphicionado: PrefetchLines=%d", c.PrefetchLines)
	case c.ClockHz <= 0:
		return fmt.Errorf("graphicionado: ClockHz=%g", c.ClockHz)
	case c.MaxCycles == 0:
		return fmt.Errorf("graphicionado: MaxCycles=0")
	case c.MaxIterations < 1:
		return fmt.Errorf("graphicionado: MaxIterations=%d", c.MaxIterations)
	}
	return c.Memory.Validate()
}

// Result is the outcome of one run.
type Result struct {
	Values     []float64
	Cycles     uint64
	Seconds    float64
	Iterations int
	// EdgesTraversed counts edge relaxations across all iterations.
	EdgesTraversed int64
	// Off-chip traffic: edge stream + vertex property stream.
	MemReads    int64
	MemWrites   int64
	BytesMoved  int64
	BytesUseful int64
	Utilization float64
	// Telemetry holds the sampled series when Config.Telemetry was enabled.
	Telemetry *telemetry.Recorder
}

// OffChipAccesses returns total line transfers.
func (r *Result) OffChipAccesses() int64 { return r.MemReads + r.MemWrites }

const (
	edgeBase          = 0x0100_0000_0000
	vertexBase        = 0x0000_0000_0000
	vertexRecordBytes = 8
)

// engine is the per-run simulation state.
type engine struct {
	cfg       Config
	g         *graph.CSR
	alg       algorithms.Algorithm
	sim       *sim.Engine
	memory    *mem.Memory
	fetch     *mem.Fetcher
	edgeBytes uint64

	ctx context.Context // nil = no cancellation

	state   []float64
	acc     []float64
	applied []float64

	active  []graph.VertexID
	nextIdx int
	streams []stream

	touched   []graph.VertexID
	inTouched []bool

	// lineState is the per-phase readiness of every edge line, indexed by
	// edge-line number and shared by all streams (consecutive active
	// vertices often share boundary lines). An entry is a phase stamp:
	// phaseGen<<1 while the line is in flight, phaseGen<<1|1 once it has
	// landed, anything older means "not fetched this phase". Bumping
	// phaseGen therefore clears the whole table, and a completion only
	// marks a line that is in flight in the current phase.
	lineState []uint64
	phaseGen  uint64

	// remaining counts the lines of a vertex-record stream still in flight.
	remaining int
	// Completion handlers, bound once so a fetch allocates nothing.
	onEdgeLine, onVertexLine func(tag uint64)

	edgesTraversed int64
	iterations     int
}

type stream struct {
	v      graph.VertexID
	idx    int
	deg    int
	start  uint64
	active bool
	// window is the edge line the prefetch window was last filled from.
	// A fill marks every line it covers for the phase, so refilling from
	// the same line fetches nothing.
	window uint64
}

// Run executes alg over g under the Graphicionado model.
func Run(cfg Config, g *graph.CSR, alg algorithms.Algorithm) (*Result, error) {
	return RunCtx(nil, cfg, g, alg)
}

// RunCtx runs like Run with wall-clock cancellation: when ctx is done the
// simulation stops with an error wrapping sim.ErrCanceled. A nil ctx
// disables cancellation.
func RunCtx(ctx context.Context, cfg Config, g *graph.CSR, alg algorithms.Algorithm) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("graphicionado: empty graph")
	}
	e := &engine{
		cfg:       cfg,
		g:         g,
		alg:       alg,
		ctx:       ctx,
		sim:       sim.NewEngine(),
		edgeBytes: algorithms.EdgeRecordBytes(alg),
	}
	e.memory = mem.New(cfg.Memory)
	e.fetch = mem.NewFetcher(e.memory)
	e.onEdgeLine, e.onVertexLine = e.edgeLineDone, e.vertexLineDone
	e.lineState = make([]uint64, uint64(g.NumEdges())*e.edgeBytes/mem.LineBytes+1)
	e.sim.Register(e.memory)
	// The BSP loops drive e.sim.Step() directly, so a recorder registered
	// here is ticked like any clocked block; registered after the memory so
	// it samples end-of-cycle state.
	tel := telemetry.New(cfg.Telemetry)
	if tel != nil {
		e.memory.RegisterProbes(tel, "memory")
		tel.Gauge("frontier", "frontier_size", "vertices", func() int64 { return int64(len(e.active)) })
		tel.Rate("frontier", "edges_traversed", "edges", func() int64 { return e.edgesTraversed })
		e.sim.Register(tel)
	}

	n := g.NumVertices()
	e.state = make([]float64, n)
	e.acc = make([]float64, n)
	e.applied = make([]float64, n)
	id := alg.Identity()
	for v := 0; v < n; v++ {
		e.state[v] = alg.InitState(graph.VertexID(v))
		e.acc[v] = id
	}
	e.inTouched = make([]bool, n)
	e.streams = make([]stream, cfg.Streams)
	seen := make([]bool, n)
	for _, ev := range alg.InitialEvents(g) {
		e.acc[ev.Vertex] = alg.Reduce(e.acc[ev.Vertex], ev.Delta)
		if !seen[ev.Vertex] {
			seen[ev.Vertex] = true
			e.active = append(e.active, ev.Vertex)
		}
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	ms := e.memory.Counters()
	res := &Result{
		Values:         e.state,
		Cycles:         e.sim.Cycle(),
		Seconds:        e.sim.SecondsAt(cfg.ClockHz),
		Iterations:     e.iterations,
		EdgesTraversed: e.edgesTraversed,
		MemReads:       ms.Reads,
		MemWrites:      ms.Writes,
		BytesMoved:     ms.BytesMoved,
		BytesUseful:    ms.BytesUseful,
		Utilization:    e.memory.Utilization(),
		Telemetry:      tel,
	}
	return res, nil
}

func (e *engine) run() error {
	id := e.alg.Identity()
	for e.iterations = 0; e.iterations < e.cfg.MaxIterations; e.iterations++ {
		// Apply phase (on-chip): consume accumulated deltas, keep changed
		// vertices as this iteration's sources.
		sources := e.active[:0]
		for _, v := range e.active {
			delta := e.acc[v]
			e.acc[v] = id
			old := e.state[v]
			next := e.alg.Reduce(old, delta)
			e.state[v] = next
			if e.alg.Changed(old, next) && e.g.OutDegree(v) > 0 {
				e.applied[v] = delta
				sources = append(sources, v)
			}
		}
		e.active = sources
		if len(e.active) == 0 {
			return nil
		}
		// The processing phase reads the active (source) vertex property
		// records alongside the edge stream; sort the list so the stream is
		// CSR-sequential.
		slices.Sort(e.active)
		if err := e.streamVertexRecords(e.active, false); err != nil {
			return err
		}
		// Processing phase: stream the active vertices' edges from DRAM.
		if err := e.processingPhase(); err != nil {
			return err
		}
		// Apply phase: read and write back each touched vertex's property
		// record ("the apply phase streams all touched vertices").
		slices.Sort(e.touched)
		if err := e.streamVertexRecords(e.touched, false); err != nil {
			return err
		}
		if err := e.streamVertexRecords(e.touched, true); err != nil {
			return err
		}
		// Next frontier: every touched destination (filtered next apply).
		e.active = append(e.active[:0], e.touched...)
		for _, v := range e.touched {
			e.inTouched[v] = false
		}
		e.touched = e.touched[:0]
	}
	return fmt.Errorf("graphicionado: exceeded %d iterations", e.cfg.MaxIterations)
}

// canceled polls the run context (cheaply: every 1024 cycles) and returns
// a structured cancellation error when it has expired.
func (e *engine) canceled() error {
	if e.ctx == nil || e.sim.Cycle()%1024 != 0 {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return fmt.Errorf("graphicionado: %w after %d cycles: %v",
			sim.ErrCanceled, e.sim.Cycle(), e.ctx.Err())
	default:
		return nil
	}
}

// streamVertexRecords streams the property records of the given sorted
// vertex list through DRAM at line granularity, blocking until the stream
// completes (the phases are separated by the BSP barrier anyway). Useful
// bytes reflect the records actually consumed per line.
func (e *engine) streamVertexRecords(vs []graph.VertexID, write bool) error {
	if len(vs) == 0 {
		return nil
	}
	i := 0
	for i < len(vs) {
		line := (vertexBase + uint64(vs[i])*vertexRecordBytes) &^ (mem.LineBytes - 1)
		useful := uint64(0)
		for i < len(vs) && (vertexBase+uint64(vs[i])*vertexRecordBytes)&^(mem.LineBytes-1) == line {
			useful += vertexRecordBytes
			i++
		}
		e.remaining++
		e.fetch.Fetch(line, mem.LineBytes, useful, write, e.onVertexLine, 0)
	}
	start := e.sim.Cycle()
	for e.remaining > 0 {
		e.fetch.Pump()
		e.sim.Step()
		if e.sim.Cycle()-start > e.cfg.MaxCycles {
			return fmt.Errorf("graphicionado: vertex stream exceeded %d cycles: %w",
				e.cfg.MaxCycles, sim.ErrDeadline)
		}
		if err := e.canceled(); err != nil {
			return err
		}
	}
	return nil
}

func (e *engine) vertexLineDone(uint64) { e.remaining-- }

// processingPhase drains the active list through the parallel streams, one
// edge per stream per cycle when its data has arrived.
func (e *engine) processingPhase() error {
	e.nextIdx = 0
	e.phaseGen++
	ready := e.phaseGen<<1 | 1
	for i := range e.streams {
		e.streams[i].active = false
	}
	start := e.sim.Cycle()
	for {
		busy := false
		for i := range e.streams {
			s := &e.streams[i]
			if !s.active {
				if e.nextIdx >= len(e.active) {
					continue
				}
				v := e.active[e.nextIdx]
				e.nextIdx++
				s.v = v
				s.idx = 0
				s.deg = e.g.OutDegree(v)
				s.start = e.g.RowPtr[v]
				s.active = true
				s.window = ^uint64(0) // a new vertex's window ends elsewhere
			}
			busy = true
			edge := s.start + uint64(s.idx)
			line := edge * e.edgeBytes / mem.LineBytes
			if line != s.window {
				e.prefetch(s)
				s.window = line
			}
			if e.lineState[line] != ready {
				continue // waiting for edge data
			}
			e.relax(s.v, edge, s.deg)
			s.idx++
			if s.idx >= s.deg {
				s.active = false
			}
		}
		if !busy && e.fetch.Idle() && e.memory.Pending() == 0 {
			return nil
		}
		e.fetch.Pump()
		e.sim.Step()
		if e.sim.Cycle()-start > e.cfg.MaxCycles {
			return fmt.Errorf("graphicionado: processing phase exceeded %d cycles: %w",
				e.cfg.MaxCycles, sim.ErrDeadline)
		}
		if err := e.canceled(); err != nil {
			return err
		}
	}
}

// prefetch keeps up to PrefetchLines edge lines in flight for a stream.
// Line state is shared across streams, so boundary lines common to
// consecutive active vertices are fetched once per phase.
func (e *engine) prefetch(s *stream) {
	first := (s.start + uint64(s.idx)) * e.edgeBytes / mem.LineBytes
	last := (s.start + uint64(s.deg) - 1) * e.edgeBytes / mem.LineBytes
	pending := e.phaseGen << 1
	for idx := first; idx < first+uint64(e.cfg.PrefetchLines) && idx <= last; idx++ {
		if e.lineState[idx] >= pending {
			continue // in flight or landed this phase
		}
		e.lineState[idx] = pending
		line := edgeBase + idx*mem.LineBytes
		e.fetch.Fetch(line, mem.LineBytes, e.edgeLineUseful(line, s.start, s.deg), false, e.onEdgeLine, idx)
	}
}

// edgeLineDone marks edge line idx ready if it is in flight in the current
// phase. The phase loop exits only with the memory idle, so no completion
// outlives its phase; the stamp check keeps that a local guarantee.
func (e *engine) edgeLineDone(idx uint64) {
	if e.lineState[idx] == e.phaseGen<<1 {
		e.lineState[idx] |= 1
	}
}

func (e *engine) edgeLineUseful(line uint64, start uint64, deg int) uint64 {
	return mem.LineOverlap(line, edgeBase+start*e.edgeBytes, edgeBase+(start+uint64(deg))*e.edgeBytes)
}

// relax processes one edge: propagate and reduce into the on-chip temp
// property (no off-chip traffic under the unlimited-buffer assumption).
func (e *engine) relax(src graph.VertexID, edge uint64, deg int) {
	dst := e.g.Dst[edge]
	out := e.alg.Propagate(e.applied[src], algorithms.EdgeContext{
		Src:          src,
		Dst:          dst,
		Weight:       e.g.EdgeWeight(edge),
		SrcOutDegree: deg,
	})
	e.acc[dst] = e.alg.Reduce(e.acc[dst], out)
	e.edgesTraversed++
	if !e.inTouched[dst] {
		e.inTouched[dst] = true
		e.touched = append(e.touched, dst)
	}
}
