package core

import (
	"context"
	"fmt"
	"sort"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/partition"
	"graphpulse/internal/mem"
	"graphpulse/internal/sim"
	"graphpulse/internal/sim/telemetry"
)

// Figure 13's chronological execution stages, as indices of the
// accelerator's stage arrays.
const (
	stageVtxMem = iota
	stageProcess
	stageGenBuffer
	stageEdgeMem
	stageGenerate
	numStages
)

// StageNames lists the Figure 13 stages in chronological order (the
// Result.StageMeans keys).
var StageNames = []string{"vtx_mem", "process", "gen_buffer", "edge_mem", "generate"}

// Scheduler phases.
const (
	phaseSwapIn = iota
	phaseDrain
	phaseQuiesce
	phaseFlush
	phaseDone
)

// stageBlock is one drained row bound for one processor. events[next:] are
// still to dispatch; the buffer is reused by the next row staged in the
// slot.
type stageBlock struct {
	events []Event
	next   int
	proc   int
	// refusedAt is the processor's epoch when it last refused events[next]
	// (0: never); the push is not retried until the epoch moves.
	refusedAt uint64
}

// Accelerator is one GraphPulse instance wired to an algorithm and a graph.
// Construct with New, run with Run; an Accelerator is single-use.
type Accelerator struct {
	cfg    Config
	alg    algorithms.Algorithm
	g      *graph.CSR
	engine *sim.Engine
	memory *mem.Memory
	fetch  *mem.Fetcher

	state     []float64
	edgeBytes uint64
	prog      algorithms.Progressor // nil if unsupported

	// onSpillLine is the swap-in read completion, bound once.
	onSpillLine func(tag uint64)

	slices   []partition.Slice
	curSlice int
	queue    *coalescingQueue
	xbar     *crossbar
	spill    *spillBuffers
	procs    []*processor
	gens     []*genUnit

	// Scheduler state.
	phase       int
	drainIdx    int   // position in binOrder
	binOrder    []int // bin drain order for the current round
	drainCursor int
	staging     []stageBlock // live blocks in drain order; reused slots beyond len
	rrProc      int
	globalStop  bool

	// Swap-in state.
	pendingInserts []Event
	availInserts   int
	swapReadAddr   uint64
	spillWriteAddr uint64
	spillCarry     int

	// Round bookkeeping.
	round          int
	roundLog       []RoundStats
	roundProcessed int64
	roundProgress  float64
	roundLook      [LookaheadBuckets]int64
	snapInserted   int64
	snapCoalesced  int64
	// foldInserted/foldCoalesced accumulate earlier rounds' queue counters
	// so telemetry rate probes stay monotone across per-slice queue
	// replacement (activateSlice builds a fresh queue with zeroed counters).
	foldInserted  int64
	foldCoalesced int64

	// Cumulative counters.
	eventsProcessed   int64
	eventsEmitted     int64
	spilledEvents     int64
	sliceSwitches     int64
	drainStalls       int64
	extraVertexUseful int64

	// Robustness state. initialEvents/discardedEvents feed the
	// event-conservation balance sheet; wdErr latches a watchdog trip.
	initialEvents   int64
	discardedEvents int64
	wdStrikes       int
	wdErr           *ConservationError

	// Figure 13 accounting, indexed by stage: cycles accrued and events
	// that completed the stage.
	stageCycles [numStages]int64
	stageEvents [numStages]int64

	tel *telemetry.Recorder // nil unless Config.Telemetry is enabled
}

// New builds an accelerator for running alg over g. The graph is partitioned
// into slices if it exceeds cfg.QueueCapacity (Section IV-F).
func New(cfg Config, g *graph.CSR, alg algorithms.Algorithm) (*Accelerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	a := &Accelerator{
		cfg:       cfg,
		alg:       alg,
		g:         g,
		engine:    sim.NewEngine(),
		edgeBytes: algorithms.EdgeRecordBytes(alg),
	}
	a.prog, _ = alg.(algorithms.Progressor)
	a.memory = mem.New(cfg.Memory)
	a.fetch = mem.NewFetcher(a.memory)
	a.onSpillLine = a.spillLineDone
	a.engine.Register(a.memory)
	a.engine.Register(a)

	n := g.NumVertices()
	capacity := cfg.QueueCapacity
	if capacity == 0 || capacity >= n {
		a.slices = []partition.Slice{{Lo: 0, Hi: graph.VertexID(n)}}
	} else {
		p, err := partition.Contiguous(g, capacity, 2)
		if err != nil {
			return nil, err
		}
		a.slices = p.Slices
	}
	a.spill = newSpillBuffers(len(a.slices))

	a.state = make([]float64, n)
	for v := 0; v < n; v++ {
		a.state[v] = alg.InitState(graph.VertexID(v))
	}

	a.procs = make([]*processor, cfg.NumProcessors)
	for i := range a.procs {
		a.procs[i] = newProcessor(a, i)
	}
	if cfg.DecoupledGeneration {
		a.gens = make([]*genUnit, cfg.NumProcessors)
		for i := range a.gens {
			a.gens[i] = newGenUnit(a, a.procs[i])
		}
	}
	a.xbar = newCrossbar(cfg.CrossbarPorts, cfg.NetworkQueueDepth)

	// Distribute the bootstrap events to their slices. Initial events are
	// host-written (Section III-B), so activation below charges insertion
	// cycles but no DRAM traffic for them.
	for _, ev := range alg.InitialEvents(g) {
		a.spill.add(a.sliceOf(ev.Vertex), Event{Target: ev.Vertex, Delta: ev.Delta})
		a.initialEvents++
	}
	first := a.spill.nextNonEmpty(len(a.slices) - 1)
	if first == -1 {
		first = 0
	}
	a.activateSlice(first, false)
	// The recorder is registered last so it samples end-of-cycle state
	// after every block (memory, accelerator) has ticked; probes only read,
	// so results are bit-identical with telemetry on or off.
	if a.tel = telemetry.New(cfg.Telemetry); a.tel != nil {
		a.registerTelemetry(a.tel)
		a.engine.Register(a.tel)
	}
	return a, nil
}

// sliceOf returns the slice index owning global vertex v.
func (a *Accelerator) sliceOf(v graph.VertexID) int {
	lo, hi := 0, len(a.slices)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case v < a.slices[mid].Lo:
			hi = mid
		case v >= a.slices[mid].Hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// globalID converts a slice-local event target to a global vertex id.
func (a *Accelerator) globalID(local graph.VertexID) graph.VertexID {
	return a.slices[a.curSlice].Lo + local
}

// activateSlice installs slice s: builds a fresh coalescing queue sized to
// the slice and stages its spilled events for insertion. When charged is
// true the event stream is read back from the off-chip spill region.
func (a *Accelerator) activateSlice(s int, charged bool) {
	a.curSlice = s
	sl := a.slices[s]
	a.queue = newMappedQueue(sl.NumVertices(), a.cfg.NumBins, a.cfg.BinCols,
		a.cfg.Mapping, a.cfg.CoalesceDisabled, a.alg.Reduce)
	a.pendingInserts = a.spill.take(s)
	a.availInserts = len(a.pendingInserts)
	if charged {
		a.availInserts = 0
		bytes := uint64(len(a.pendingInserts)) * 16
		lines := (bytes + mem.LineBytes - 1) / mem.LineBytes
		for l := uint64(0); l < lines; l++ {
			a.fetch.Fetch(spillBase+a.swapReadAddr, mem.LineBytes, mem.LineBytes, false, a.onSpillLine, 0)
			a.swapReadAddr += mem.LineBytes
		}
	}
	a.phase = phaseSwapIn
	a.snapInserted = 0
	a.snapCoalesced = 0
}

// spillLineDone releases the events of one swap-in line for insertion.
func (a *Accelerator) spillLineDone(uint64) { a.availInserts += mem.LineBytes / 16 }

// edgeAddr returns the simulated byte address of edge record i.
func (a *Accelerator) edgeAddr(i uint64) uint64 {
	return edgeBase + i*a.edgeBytes
}

// edgeLineUseful computes how many bytes of the 64-byte line at `line` the
// task will actually consume.
func (a *Accelerator) edgeLineUseful(line uint64, t *genTask) uint64 {
	return mem.LineOverlap(line, a.edgeAddr(t.edgeStart), a.edgeAddr(t.edgeStart+uint64(t.degree)))
}

// writebackVertexLine writes an evicted dirty scratchpad line; dirty counts
// the vertex updates batched into it.
func (a *Accelerator) writebackVertexLine(addr uint64, dirty int) {
	useful := uint64(dirty) * 8
	if useful > mem.LineBytes {
		useful = mem.LineBytes
	}
	a.fetch.Fetch(addr, mem.LineBytes, useful, true, nil, 0)
}

// submitGen hands a generation task to the processor's generation unit.
func (a *Accelerator) submitGen(proc int, t genTask) bool {
	return a.gens[proc].submit(t)
}

// emitEdge produces the outgoing event for edge idx of task t, routing it
// to the coalescing queue (in-slice) or a spill buffer (cross-slice). It
// returns false when the delivery network refuses the event this cycle.
func (a *Accelerator) emitEdge(t *genTask, idx int) bool {
	edge := t.edgeStart + uint64(idx)
	dst := a.g.Dst[edge]
	out := a.alg.Propagate(t.delta, algorithms.EdgeContext{
		Src:          t.src,
		Dst:          dst,
		Weight:       a.g.EdgeWeight(edge),
		SrcOutDegree: t.degree,
	})
	sl := a.slices[a.curSlice]
	if dst >= sl.Lo && dst < sl.Hi {
		if !a.xbar.offer(Event{Target: dst - sl.Lo, Delta: out, Lookahead: t.look}) {
			return false
		}
		a.eventsEmitted++
		return true
	}
	a.spill.add(a.sliceOf(dst), Event{Target: dst, Delta: out, Lookahead: t.look})
	a.eventsEmitted++
	a.spilledEvents++
	// Spilled events pack into sequential off-chip bursts (Section IV-F:
	// "We buffer the events that are outbound to each slice to fill a DRAM
	// page with burst-write").
	a.spillCarry += 16
	for a.spillCarry >= mem.LineBytes {
		a.fetch.Fetch(spillBase+a.spillWriteAddr, mem.LineBytes, mem.LineBytes, true, nil, 0)
		a.spillWriteAddr += mem.LineBytes
		a.spillCarry -= mem.LineBytes
	}
	return true
}

// observeLookahead buckets a processed event's lookahead for Figure 8.
func (a *Accelerator) observeLookahead(l uint32) {
	a.roundLook[LookaheadBucket(l)]++
}

// Name implements sim.Component.
func (a *Accelerator) Name() string { return a.cfg.Name }

// Tick advances the whole accelerator one cycle.
func (a *Accelerator) Tick(cycle uint64) {
	a.fetch.Pump()
	drainedBin := -1
	switch a.phase {
	case phaseSwapIn:
		a.swapInStep()
	case phaseDrain:
		drainedBin = a.drainStep()
	}
	a.dispatchStep(cycle)
	// Sleeping units are skipped: their next ticks could only bump
	// counters, which they are credited in bulk when woken or settled.
	for _, p := range a.procs {
		if !p.asleep {
			p.tick(cycle)
		}
	}
	for _, u := range a.gens {
		if !u.asleep {
			u.tick(cycle)
		}
	}
	a.xbar.deliver(a.queue, drainedBin)
	a.transition()
	a.watchdogCheck(cycle)
}

// swapInStep inserts staged events through the bins' parallel insertion
// pipelines, up to one per bin per cycle.
func (a *Accelerator) swapInStep() {
	n := a.cfg.NumBins
	if n > a.availInserts {
		n = a.availInserts
	}
	if n > len(a.pendingInserts) {
		n = len(a.pendingInserts)
	}
	lo := a.slices[a.curSlice].Lo
	for i := 0; i < n; i++ {
		ev := a.pendingInserts[i]
		ev.Target -= lo // spill buffers hold global ids
		a.queue.insert(ev)
	}
	a.pendingInserts = a.pendingInserts[n:]
	a.availInserts -= n
	if len(a.pendingInserts) == 0 {
		a.startRound()
	}
}

// startRound computes the bin drain order for the next round and enters the
// drain phase.
func (a *Accelerator) startRound() {
	if cap(a.binOrder) < a.cfg.NumBins {
		a.binOrder = make([]int, a.cfg.NumBins)
	}
	a.binOrder = a.binOrder[:a.cfg.NumBins]
	for i := range a.binOrder {
		a.binOrder[i] = i
	}
	if a.cfg.Schedule == ScheduleDensestFirst {
		sort.SliceStable(a.binOrder, func(i, j int) bool {
			return a.queue.binPopulation(a.binOrder[i]) > a.queue.binPopulation(a.binOrder[j])
		})
	}
	a.phase = phaseDrain
	a.drainIdx, a.drainCursor = 0, 0
}

// drainStep removes one occupied row from the current bin per cycle and
// stages it as a block bound for one processor. Returns the bin drained
// this cycle (insertions to it stall), or -1.
func (a *Accelerator) drainStep() int {
	const stagingCap = 4
	if len(a.staging) >= stagingCap {
		a.drainStalls++
		return -1
	}
	for a.drainIdx < len(a.binOrder) {
		bin := a.binOrder[a.drainIdx]
		r := a.queue.nextOccupiedRow(bin, a.drainCursor)
		if r == -1 {
			a.drainIdx++
			a.drainCursor = 0
			continue
		}
		n := len(a.staging)
		if n < cap(a.staging) {
			a.staging = a.staging[:n+1] // reuse the slot's event buffer
		} else {
			a.staging = append(a.staging, stageBlock{})
		}
		blk := &a.staging[n]
		blk.events = a.queue.drainRow(bin, r, blk.events[:0])
		blk.next, blk.proc, blk.refusedAt = 0, a.rrProc, 0
		a.drainCursor = r + 1
		a.rrProc = (a.rrProc + 1) % len(a.procs)
		return bin
	}
	a.phase = phaseQuiesce
	return -1
}

// dispatchStep moves staged events into processor input buffers through the
// scheduler's arbiter network. Whole rows go to one processor so drained
// blocks stay contiguous for the prefetcher.
func (a *Accelerator) dispatchStep(cycle uint64) {
	bw := a.cfg.CrossbarPorts
	kept := 0
	for i := range a.staging {
		blk := &a.staging[i]
		p := a.procs[blk.proc]
		if blk.refusedAt != p.epoch {
			for bw > 0 && blk.next < len(blk.events) {
				if !p.tryPush(blk.events[blk.next], cycle) {
					blk.refusedAt = p.epoch
					break
				}
				blk.next++
				bw--
			}
		}
		if blk.next < len(blk.events) {
			// Swap rather than copy, so the emptied slot's buffer stays
			// in the backing array for the next drained row.
			a.staging[kept], a.staging[i] = a.staging[i], a.staging[kept]
			kept++
		}
	}
	a.staging = a.staging[:kept]
}

// quiescent reports whether all in-flight work has landed back in the queue
// or spill buffers.
func (a *Accelerator) quiescent() bool {
	if len(a.staging) > 0 || !a.xbar.empty() {
		return false
	}
	for _, p := range a.procs {
		if !p.idle() {
			return false
		}
	}
	for _, u := range a.gens {
		if !u.idle() {
			return false
		}
	}
	return true
}

// transition runs the scheduler's end-of-round and termination logic
// (Section IV-C): after a full pass over the bins it waits for all units to
// go idle — the guarantee that at most one event per vertex is in flight —
// then starts the next round, switches slices, or terminates.
func (a *Accelerator) transition() {
	switch a.phase {
	case phaseQuiesce:
		if !a.quiescent() {
			return
		}
		processed := a.roundProcessed
		progress := a.roundProgress
		a.endRound()
		// Optional global termination (Section IV-C): when a full pass over
		// the queue makes negligible global progress, stop even though
		// sub-threshold events remain.
		if a.cfg.GlobalProgressThreshold > 0 && a.prog != nil &&
			processed > 0 && progress < a.cfg.GlobalProgressThreshold {
			a.globalStop = true
			// Sub-threshold events are discarded deliberately; book them so
			// the conservation watchdog doesn't read the purge as a loss.
			a.discardedEvents += int64(len(a.queue.drainAll()))
			for i := range a.spill.perSlice {
				a.discardedEvents += int64(len(a.spill.take(i)))
			}
		}
		switch {
		case a.queue.population > 0:
			a.startRound()
		case a.spill.total > 0:
			next := a.spill.nextNonEmpty(a.curSlice)
			a.sliceSwitches++
			a.flushScratchpads()
			a.activateSlice(next, true)
		default:
			a.flushScratchpads()
			a.phase = phaseFlush
		}
	case phaseFlush:
		if a.fetch.Idle() && a.memory.Pending() == 0 {
			// Terminal audit: the balance sheet must be exact here even on
			// runs too short for the periodic watchdog to accumulate strikes.
			if a.finalConservationCheck() {
				a.phase = phaseDone
			}
		}
	}
}

func (a *Accelerator) flushScratchpads() {
	for _, p := range a.procs {
		if p.scratch != nil {
			p.scratch.flush(a.writebackVertexLine)
			p.epoch++
		}
	}
}

// settle credits every sleeping unit's skipped cycles before upTo, so its
// counters read as if it had been ticked through cycle upTo-1.
func (a *Accelerator) settle(upTo uint64) {
	for _, p := range a.procs {
		if p.asleep {
			p.credit(upTo)
		}
	}
	for _, u := range a.gens {
		if u.asleep {
			u.credit(upTo)
		}
	}
}

// endRound snapshots per-round statistics (Figures 4 and 8).
func (a *Accelerator) endRound() {
	rs := RoundStats{
		Round:     a.round,
		Slice:     a.curSlice,
		Produced:  a.queue.inserted - a.snapInserted,
		Coalesced: a.queue.coalesced - a.snapCoalesced,
		Processed: a.roundProcessed,
		Remaining: a.queue.population,
		Progress:  a.roundProgress,
		Lookahead: a.roundLook,
	}
	a.roundLog = append(a.roundLog, rs)
	a.foldInserted += rs.Produced
	a.foldCoalesced += rs.Coalesced
	a.snapInserted = a.queue.inserted
	a.snapCoalesced = a.queue.coalesced
	a.roundProcessed = 0
	a.roundProgress = 0
	a.roundLook = [LookaheadBuckets]int64{}
	a.round++
}

// Run simulates to termination and returns the result. It fails with
// sim.ErrDeadline if MaxCycles elapses first (a lost-event bug, not a slow
// graph: termination is guaranteed for monotone algorithms and
// threshold-bounded for the rest) and with an error wrapping
// ErrConservation if the event-conservation watchdog trips.
func (a *Accelerator) Run() (*Result, error) {
	return a.RunCtx(nil)
}

// RunCtx runs like Run with wall-clock cancellation: when ctx is done the
// simulation stops with an error wrapping sim.ErrCanceled. A nil ctx
// disables cancellation.
func (a *Accelerator) RunCtx(ctx context.Context) (*Result, error) {
	err := a.engine.RunUntil(ctx, func() bool {
		return a.phase == phaseDone || a.wdErr != nil
	}, a.cfg.MaxCycles)
	if a.wdErr != nil {
		return nil, a.wdErr
	}
	if err != nil {
		return nil, err
	}
	return a.result(), nil
}

// stageEvent accrues cycles to a stage and counts one event completing it.
func (a *Accelerator) stageEvent(stage int, cycles int64) {
	a.stageCycles[stage] += cycles
	a.stageEvents[stage]++
}

// stageMean is a stage's mean cycles per event (0 if no event completed
// it).
func (a *Accelerator) stageMean(stage int) float64 {
	if a.stageEvents[stage] == 0 {
		return 0
	}
	return float64(a.stageCycles[stage]) / float64(a.stageEvents[stage])
}

func (a *Accelerator) result() *Result {
	a.settle(a.engine.Cycle())
	ms := a.memory.Counters()
	r := &Result{
		Config:             a.cfg.Name,
		Algorithm:          a.alg.Name(),
		Values:             a.state,
		Cycles:             a.engine.Cycle(),
		Seconds:            a.engine.SecondsAt(a.cfg.ClockHz),
		Rounds:             a.round,
		Slices:             len(a.slices),
		SliceSwitches:      a.sliceSwitches,
		EventsProcessed:    a.eventsProcessed,
		EventsEmitted:      a.eventsEmitted,
		EventsCoalesced:    a.queue.coalesced,
		SpilledEvents:      a.spilledEvents,
		MemReads:           ms.Reads,
		MemWrites:          ms.Writes,
		BytesMoved:         ms.BytesMoved,
		BytesUseful:        ms.BytesUseful + a.extraVertexUseful,
		RowHits:            ms.RowHits,
		RowMisses:          ms.RowMisses,
		DiscardedEvents:    a.discardedEvents,
		RoundLog:           a.roundLog,
		TerminatedGlobally: a.globalStop,
		StageMeans:         make(map[string]float64, len(StageNames)),
		ProcBreakdown:      make(map[string]float64, numProcStates),
		GenBreakdown:       make(map[string]float64, numGenStates),
	}
	if r.BytesMoved > 0 {
		if r.BytesUseful > r.BytesMoved {
			r.BytesUseful = r.BytesMoved
		}
		r.Utilization = float64(r.BytesUseful) / float64(r.BytesMoved)
	} else {
		r.Utilization = 1
	}
	r.Telemetry = a.tel
	// Coalesced counts from earlier slices' queues are folded into the
	// round log; recompute the total from it.
	r.EventsCoalesced = 0
	for _, rs := range a.roundLog {
		r.EventsCoalesced += rs.Coalesced
	}
	for i, s := range StageNames {
		r.StageMeans[s] = a.stageMean(i)
	}
	var pc [numProcStates]int64
	var total int64
	for _, p := range a.procs {
		for i, c := range p.stateHist {
			pc[i] += c
			total += c
		}
	}
	if total > 0 {
		r.ProcBreakdown["vertex_read"] = float64(pc[procStateVertexRead]) / float64(total)
		r.ProcBreakdown["process"] = float64(pc[procStateProcess]) / float64(total)
		r.ProcBreakdown["stalling"] = float64(pc[procStateStalling]) / float64(total)
		r.ProcBreakdown["idle"] = float64(pc[procStateIdle]) / float64(total)
	}
	var gc [numGenStates]int64
	var gtotal int64
	for _, u := range a.gens {
		for i, c := range u.stateHist {
			gc[i] += c
			gtotal += c
		}
	}
	if gtotal > 0 {
		r.GenBreakdown["edge_read"] = float64(gc[genStateEdgeRead]) / float64(gtotal)
		r.GenBreakdown["generate"] = float64(gc[genStateGenerate]) / float64(gtotal)
		r.GenBreakdown["idle"] = float64(gc[genStateIdle]) / float64(gtotal)
	}
	return r
}
