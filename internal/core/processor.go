package core

import (
	"graphpulse/internal/graph"
	"graphpulse/internal/mem"
	"graphpulse/internal/sim"
)

// Per-cycle unit states, tracked for Figure 14's breakdown.
const (
	procStateVertexRead = iota
	procStateProcess
	procStateStalling
	procStateIdle
	numProcStates
)

const (
	genStateEdgeRead = iota
	genStateGenerate
	genStateIdle
	numGenStates
)

// genTask is one vertex update handed from a processor to event generation:
// propagate `delta` along all out-edges of `src`. The degree and edge offset
// come from the vertex record ("encoded in the vertex data as a hint"), so
// generation never touches the CSR row-pointer array. Tasks move by value
// through the generation queues; none is a heap object.
type genTask struct {
	src        graph.VertexID // global id
	delta      float64
	look       uint32
	degree     int
	edgeStart  uint64 // first edge index in the CSR
	enqueuedAt uint64 // cycle the task entered the generation buffer
}

// inEvent is an event staged in a processor's input buffer.
type inEvent struct {
	ev        Event // Target is slice-local
	headSince uint64
}

// scratchpad is the small per-processor vertex-property store fed by the
// prefetcher (Section V, Figure 9). It is fully associative with a handful
// of lines, so lookups are linear scans over parallel arrays (faster than a
// map at this size, and closer to the hardware's CAM). Lines are
// reference-counted by buffered events; eviction takes a ready,
// unreferenced line and writes it back if dirty, which batches the random
// single-vertex stores of the baseline design into per-line bursts.
type scratchpad struct {
	addrs []uint64
	lines []spLine
}

type spLine struct {
	valid    bool
	ready    bool
	readyAt  uint64
	dirty    int // vertex updates not yet written back
	refs     int // buffered events referencing this line
	consumed int // vertex records already processed from this line
}

func newScratchpad(capLines int) *scratchpad {
	return &scratchpad{
		addrs: make([]uint64, capLines),
		lines: make([]spLine, capLines),
	}
}

// lookup returns the index of addr, or -1.
func (s *scratchpad) lookup(addr uint64) int {
	for i, a := range s.addrs {
		if a == addr && s.lines[i].valid {
			return i
		}
	}
	return -1
}

// reserve finds a slot for addr, evicting a ready unreferenced line if
// needed (written back through wb when dirty). Returns the slot index or -1
// when nothing is evictable.
func (s *scratchpad) reserve(addr uint64, wb func(addr uint64, dirty int)) int {
	victim := -1
	for i := range s.lines {
		l := &s.lines[i]
		if !l.valid {
			victim = i
			break
		}
		if victim == -1 && l.ready && l.refs == 0 {
			victim = i
		}
	}
	if victim == -1 {
		return -1
	}
	if l := &s.lines[victim]; l.valid && l.dirty > 0 {
		wb(s.addrs[victim], l.dirty)
	}
	s.addrs[victim] = addr
	s.lines[victim] = spLine{valid: true}
	return victim
}

// flush writes back every dirty line and invalidates the scratchpad.
func (s *scratchpad) flush(wb func(addr uint64, dirty int)) {
	for i := range s.lines {
		if l := &s.lines[i]; l.valid && l.dirty > 0 {
			wb(s.addrs[i], l.dirty)
		}
		s.lines[i] = spLine{}
	}
}

// processor is one event processor (Section IV-E): a state machine that
// receives an event, reads and updates the vertex state, checks local
// termination, and hands changed vertices to event generation. In the
// baseline configuration it also performs generation itself, holding the
// event pipeline hostage while it walks the edge list — exactly the
// bottleneck the Section V decoupling removes.
//
// With prefetching enabled, the vertex line of an event is requested the
// moment the scheduler stages the event into the input buffer (the
// "prefetch and store vertex properties for the events waiting in the input
// buffer" path of Figure 9), so by the time the event reaches the head of
// the buffer its data is usually resident.
type processor struct {
	a  *Accelerator
	id int

	input     sim.FIFO[inEvent]
	scratch   *scratchpad // nil unless cfg.Prefetch
	stateHist [numProcStates]int64

	// pendingGen holds a completed update waiting for generation-buffer
	// space (the "Stalling" state of Figure 14) while stalled is set.
	pendingGen genTask
	stalled    bool

	// Direct-read state for the non-prefetching path.
	directIssued bool
	directReady  bool
	directAt     uint64

	// In-processor generation state (baseline only); gen is live while
	// generating is set.
	gen         genTask
	generating  bool
	genIdx      int
	lineAddr    uint64
	linePending bool
	lineReady   bool

	// Fetch completions, bound once: the scratchpad's tag is the slot.
	onVertexLine, onDirectRead, onGenLine func(tag uint64)

	// epoch counts, from 1, the changes that can turn a refused tryPush
	// into an accepted one (a push, a pop, a scratchpad fill or flush);
	// dispatch retries a refused row only after it moves.
	epoch uint64

	// A processor whose next tick could only repeat sleepState is not
	// ticked (see sleeps): the completion, push or generation-queue pop
	// that can change its state wakes it, and the skipped cycles from
	// sleepSince on are credited to sleepState in bulk. waitSlot is the
	// scratchpad slot the head event waits on.
	asleep     bool
	sleepState int
	sleepSince uint64
	waitSlot   int
}

func newProcessor(a *Accelerator, id int) *processor {
	p := &processor{a: a, id: id, epoch: 1}
	if a.cfg.Prefetch {
		p.scratch = newScratchpad(a.cfg.ScratchpadLines)
	}
	p.onVertexLine, p.onDirectRead, p.onGenLine = p.vertexLineDone, p.directReadDone, p.genLineDone
	return p
}

// vertexLineDone marks scratchpad slot `slot` resident.
func (p *processor) vertexLineDone(slot uint64) {
	l := &p.scratch.lines[slot]
	l.ready = true
	l.readyAt = p.a.engine.Cycle()
	p.epoch++
	if p.asleep && p.sleepState == procStateVertexRead && int(slot) == p.waitSlot {
		p.wake(l.readyAt)
	}
}

func (p *processor) directReadDone(uint64) {
	p.directReady = true
	p.directAt = p.a.engine.Cycle()
	if p.asleep {
		p.wake(p.directAt)
	}
}

func (p *processor) genLineDone(uint64) {
	p.linePending = false
	p.lineReady = true
	if p.asleep {
		p.wake(p.a.engine.Cycle())
	}
}

func (p *processor) vertexLine(v graph.VertexID) uint64 {
	return (vertexBase + uint64(v)*vertexRecordBytes) &^ (mem.LineBytes - 1)
}

// tryPush stages an event into the input buffer and prefetches its vertex
// line. It refuses (returns false) when the buffer is full or, on the
// prefetching path, when the event's line is absent and no scratchpad line
// can be reserved — backpressure that bounds the lines a block of events
// may pin.
func (p *processor) tryPush(ev Event, cycle uint64) bool {
	if p.input.Len() >= p.a.cfg.InputBufferDepth {
		return false
	}
	if p.scratch != nil {
		line := p.vertexLine(p.a.globalID(ev.Target))
		idx := p.scratch.lookup(line)
		if idx == -1 {
			idx = p.scratch.reserve(line, p.a.writebackVertexLine)
			if idx == -1 {
				return false
			}
			p.scratch.lines[idx].refs = 1
			p.a.fetch.Fetch(line, mem.LineBytes, vertexRecordBytes, false, p.onVertexLine, uint64(idx))
		} else {
			p.scratch.lines[idx].refs++
		}
	}
	p.input.Push(inEvent{ev: ev, headSince: cycle})
	p.epoch++
	if p.asleep && p.sleepState == procStateIdle {
		p.wake(cycle)
	}
	return true
}

// idle reports full quiescence of the processor.
func (p *processor) idle() bool {
	return p.input.Len() == 0 && !p.stalled && !p.generating && !p.directIssued
}

// tick advances the processor one cycle and records its Figure 14 state.
func (p *processor) tick(cycle uint64) {
	state := p.step(cycle)
	p.stateHist[state]++
	if p.sleeps(state) {
		p.asleep, p.sleepState, p.sleepSince = true, state, cycle+1
	}
}

// sleeps reports whether the state this tick ended in repeats, with no
// effect but its counter, until a completion, a push or a
// generation-queue pop changes it: an idle processor waits for a push, a
// stalled one for its generation unit to pop, and every vertex-read state
// waits for one fill (the head's scratchpad line, the direct read, or the
// in-processor generation's edge line).
func (p *processor) sleeps(state int) bool {
	switch state {
	case procStateIdle, procStateVertexRead:
		return true
	case procStateStalling:
		return p.stalled // not the delivery network refusing an emit
	}
	return false
}

// credit adds the slept cycles before upTo to the sleep state's counter
// (and, for in-processor generation, to Figure 13's edge-memory stage).
func (p *processor) credit(upTo uint64) {
	n := int64(upTo - p.sleepSince)
	p.stateHist[p.sleepState] += n
	if p.generating {
		p.a.stageCycles[stageEdgeMem] += n
	}
	p.sleepSince = upTo
}

// wake credits the slept cycles and resumes ticking at cycle resume.
func (p *processor) wake(resume uint64) {
	p.credit(resume)
	p.asleep = false
}

func (p *processor) step(cycle uint64) int {
	// Baseline in-processor generation has priority: the processor is busy
	// until the previous event's outputs are generated.
	if p.generating {
		return p.generateStep(cycle)
	}
	if p.stalled {
		if !p.a.submitGen(p.id, p.pendingGen) {
			return procStateStalling
		}
		p.stalled = false
	}
	if p.input.Len() == 0 {
		return procStateIdle
	}
	head := p.input.At(0)
	gv := p.a.globalID(head.ev.Target)

	if p.scratch != nil {
		idx := p.scratch.lookup(p.vertexLine(gv))
		line := &p.scratch.lines[idx]
		if !line.ready {
			p.waitSlot = idx
			return procStateVertexRead
		}
		readyAt := line.readyAt
		if readyAt < head.headSince {
			readyAt = head.headSince
		}
		p.a.stageEvent(stageVtxMem, int64(readyAt-head.headSince))
		line.consumed++
		if line.consumed > 1 {
			// The fetch was charged 16 useful bytes for its first event;
			// later events served by the same resident line raise the
			// utilization numerator (up to the 4 records a line holds).
			if line.consumed <= mem.LineBytes/vertexRecordBytes {
				p.a.extraVertexUseful += vertexRecordBytes
			}
		}
		if p.process(head.ev, gv, cycle) {
			line.dirty++
		}
		line.refs--
		p.popHead(cycle)
		return procStateProcess
	}

	// Direct-memory path (no prefetcher): one read per event, full latency
	// exposed.
	if !p.directIssued {
		p.directIssued = true
		p.directReady = false
		p.a.fetch.Fetch(vertexBase+uint64(gv)*vertexRecordBytes, vertexRecordBytes,
			vertexRecordBytes, false, p.onDirectRead, 0)
		return procStateVertexRead
	}
	if !p.directReady {
		return procStateVertexRead
	}
	p.directIssued = false
	p.a.stageEvent(stageVtxMem, int64(p.directAt-head.headSince))
	if p.process(head.ev, gv, cycle) {
		// Write the updated value straight back: the random 8-byte store
		// of the unoptimized design.
		p.a.fetch.Fetch(vertexBase+uint64(gv)*vertexRecordBytes, 8, 8, true, nil, 0)
	}
	p.popHead(cycle)
	return procStateProcess
}

// process applies the reduce/terminate step; it reports whether the vertex
// state changed (and thus a write-back is owed).
func (p *processor) process(ev Event, gv graph.VertexID, cycle uint64) bool {
	a := p.a
	old := a.state[gv]
	next := a.alg.Reduce(old, ev.Delta)
	a.state[gv] = next
	a.eventsProcessed++
	a.roundProcessed++
	a.observeLookahead(ev.Lookahead)
	a.stageEvent(stageProcess, int64(a.cfg.ProcessLatency))
	if a.prog != nil {
		a.roundProgress += a.prog.Progress(old, next)
	}
	if !a.alg.Changed(old, next) {
		return true // state write still happened
	}
	task := genTask{
		src:        gv,
		delta:      ev.Delta,
		look:       ev.Lookahead,
		degree:     a.g.OutDegree(gv),
		edgeStart:  a.g.RowPtr[gv],
		enqueuedAt: cycle,
	}
	if task.degree == 0 {
		return true
	}
	if a.cfg.DecoupledGeneration {
		if !a.submitGen(p.id, task) {
			p.pendingGen, p.stalled = task, true
		}
	} else {
		p.gen, p.generating = task, true
		p.genIdx = 0
		p.lineAddr = 0
		p.linePending = false
		p.lineReady = false
	}
	return true
}

func (p *processor) popHead(cycle uint64) {
	p.input.Pop()
	p.epoch++
	if p.input.Len() > 0 {
		p.input.At(0).headSince = cycle
	}
}

// generateStep is the baseline's sequential in-processor event generation:
// fetch the edge line, then emit one event per cycle.
func (p *processor) generateStep(cycle uint64) int {
	a := p.a
	t := &p.gen
	edgeIdx := t.edgeStart + uint64(p.genIdx)
	addr := a.edgeAddr(edgeIdx)
	line := addr &^ (mem.LineBytes - 1)
	if p.lineAddr != line || (!p.lineReady && !p.linePending) {
		p.lineAddr = line
		p.linePending = true
		p.lineReady = false
		useful := a.edgeLineUseful(line, t)
		p.a.fetch.Fetch(line, mem.LineBytes, useful, false, p.onGenLine, 0)
		a.stageCycles[stageEdgeMem]++
		return procStateVertexRead // memory wait (edge read shares the bar)
	}
	if !p.lineReady {
		a.stageCycles[stageEdgeMem]++
		return procStateVertexRead
	}
	if !a.emitEdge(t, p.genIdx) {
		a.stageCycles[stageGenerate]++
		return procStateStalling // delivery network full
	}
	a.stageCycles[stageGenerate]++
	p.genIdx++
	if p.genIdx >= t.degree {
		a.stageEvents[stageEdgeMem]++
		a.stageEvents[stageGenerate]++
		a.stageEvents[stageGenBuffer]++ // no decoupling, no buffer wait
		p.generating = false
	}
	return procStateProcess
}
