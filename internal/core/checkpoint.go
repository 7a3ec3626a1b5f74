package core

import (
	"fmt"
	"math"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/atomicio"
	"graphpulse/internal/graph"
)

// CheckpointVersion identifies the on-disk checkpoint format.
const CheckpointVersion = 1

// CheckpointEvent is one serialized event. The delta is stored as raw
// IEEE-754 bits because JSON cannot represent ±Inf (SSSP-style algorithms
// initialize state to +Inf) and because bit-exact round-tripping is the
// whole point of a checkpoint.
type CheckpointEvent struct {
	Target    uint32 `json:"t"` // global vertex id
	DeltaBits uint64 `json:"d"`
	Lookahead uint32 `json:"l,omitempty"`
}

// CheckpointRound mirrors RoundStats with the Progress float stored as
// bits (it can be +Inf for divergent progress metrics).
type CheckpointRound struct {
	Round        int
	Slice        int
	Produced     int64
	Coalesced    int64
	Processed    int64
	Remaining    int64
	ProgressBits uint64
	Lookahead    [LookaheadBuckets]int64
}

// CheckpointCounters carries the cumulative counters a resumed run needs to
// keep its Result continuous with the original run. DRAM counters are not
// included: a resumed run's memory-traffic statistics restart from zero.
type CheckpointCounters struct {
	InitialEvents     int64
	EventsProcessed   int64
	EventsEmitted     int64
	SpilledEvents     int64
	SliceSwitches     int64
	DrainStalls       int64
	ExtraVertexUseful int64
	DiscardedEvents   int64
	FoldInserted      int64
	FoldCoalesced     int64
	SwapReadAddr      uint64
	SpillWriteAddr    uint64
	SpillCarry        int
	GlobalStop        bool
}

// Checkpoint is a restartable snapshot of an accelerator run, taken at a
// scheduler round barrier — the quiescent point where every live event is
// either in the coalescing queue or a spill buffer, so the event population
// serializes exactly. Restore with NewFromCheckpoint; the resumed run
// produces the same converged values (the event set and vertex state are
// bit-identical) but not the same cycle count, because swap-in batching
// differs when the queue population re-enters through the spill path.
type Checkpoint struct {
	Version     int
	Config      string // Config.Name, as a restore sanity check
	Algorithm   string
	NumVertices int

	Cycle uint64
	Round int
	// Slice is the slice that was active at the barrier.
	Slice int

	// StateBits is the vertex state as raw IEEE-754 bits.
	StateBits []uint64
	// Queue holds the active slice's resident events (global vertex ids).
	Queue []CheckpointEvent
	// Spill holds each slice's spilled events.
	Spill [][]CheckpointEvent

	Counters CheckpointCounters
	RoundLog []CheckpointRound
}

func toCheckpointEvents(evs []Event, lo graph.VertexID) []CheckpointEvent {
	out := make([]CheckpointEvent, len(evs))
	for i, ev := range evs {
		out[i] = CheckpointEvent{
			Target:    uint32(ev.Target + lo),
			DeltaBits: math.Float64bits(ev.Delta),
			Lookahead: ev.Lookahead,
		}
	}
	return out
}

func fromCheckpointEvent(ce CheckpointEvent) Event {
	return Event{
		Target:    graph.VertexID(ce.Target),
		Delta:     math.Float64frombits(ce.DeltaBits),
		Lookahead: ce.Lookahead,
	}
}

// maybeCheckpoint takes a checkpoint at a round barrier when one is due.
// Called from transition with the machine quiescent.
func (a *Accelerator) maybeCheckpoint(cycle uint64) {
	if a.opts.CheckpointEvery == 0 || a.opts.OnCheckpoint == nil || a.ckErr != nil {
		return
	}
	if cycle-a.lastCheckpoint < a.opts.CheckpointEvery {
		return
	}
	a.lastCheckpoint = cycle
	if err := a.opts.OnCheckpoint(a.checkpoint(cycle)); err != nil {
		a.ckErr = err
	}
}

// checkpoint snapshots the quiescent machine. The queue is read
// non-destructively (drainAll would empty it).
func (a *Accelerator) checkpoint(cycle uint64) *Checkpoint {
	ck := &Checkpoint{
		Version:     CheckpointVersion,
		Config:      a.cfg.Name,
		Algorithm:   a.alg.Name(),
		NumVertices: a.g.NumVertices(),
		Cycle:       cycle,
		Round:       a.round,
		Slice:       a.curSlice,
		StateBits:   make([]uint64, len(a.state)),
		Queue:       toCheckpointEvents(a.queue.snapshot(), a.slices[a.curSlice].Lo),
		Spill:       make([][]CheckpointEvent, len(a.spill.perSlice)),
		Counters: CheckpointCounters{
			InitialEvents:     a.initialEvents,
			EventsProcessed:   a.eventsProcessed,
			EventsEmitted:     a.eventsEmitted,
			SpilledEvents:     a.spilledEvents,
			SliceSwitches:     a.sliceSwitches,
			DrainStalls:       a.drainStalls,
			ExtraVertexUseful: a.extraVertexUseful,
			DiscardedEvents:   a.discardedEvents,
			FoldInserted:      a.foldInserted,
			FoldCoalesced:     a.foldCoalesced,
			SwapReadAddr:      a.swapReadAddr,
			SpillWriteAddr:    a.spillWriteAddr,
			SpillCarry:        a.spillCarry,
			GlobalStop:        a.globalStop,
		},
	}
	for i, v := range a.state {
		ck.StateBits[i] = math.Float64bits(v)
	}
	for s, evs := range a.spill.perSlice {
		ck.Spill[s] = toCheckpointEvents(evs, 0) // spill targets are global
	}
	ck.RoundLog = make([]CheckpointRound, len(a.roundLog))
	for i, rs := range a.roundLog {
		ck.RoundLog[i] = CheckpointRound{
			Round: rs.Round, Slice: rs.Slice,
			Produced: rs.Produced, Coalesced: rs.Coalesced,
			Processed: rs.Processed, Remaining: rs.Remaining,
			ProgressBits: math.Float64bits(rs.Progress),
			Lookahead:    rs.Lookahead,
		}
	}
	return ck
}

// NewFromCheckpoint rebuilds an accelerator from a checkpoint taken by a
// run with the same Config, graph, and algorithm, ready to RunWithOptions
// to completion. The restored run resumes on the original cycle timeline
// and converges to the same values; per-run DRAM statistics restart (the
// checkpoint does not capture memory-controller state).
func NewFromCheckpoint(cfg Config, g *graph.CSR, alg algorithms.Algorithm, ck *Checkpoint) (*Accelerator, error) {
	switch {
	case ck.Version != CheckpointVersion:
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	case ck.Algorithm != alg.Name():
		return nil, fmt.Errorf("core: checkpoint is for algorithm %q, not %q", ck.Algorithm, alg.Name())
	case ck.NumVertices != g.NumVertices():
		return nil, fmt.Errorf("core: checkpoint has %d vertices, graph has %d", ck.NumVertices, g.NumVertices())
	case len(ck.StateBits) != g.NumVertices():
		return nil, fmt.Errorf("core: checkpoint state length %d != %d vertices", len(ck.StateBits), g.NumVertices())
	}
	a, err := New(cfg, g, alg)
	if err != nil {
		return nil, err
	}
	if len(ck.Spill) != len(a.slices) {
		return nil, fmt.Errorf("core: checkpoint has %d slices, config partitions into %d (same Config required)",
			len(ck.Spill), len(a.slices))
	}
	if ck.Slice < 0 || ck.Slice >= len(a.slices) {
		return nil, fmt.Errorf("core: checkpoint slice %d out of range", ck.Slice)
	}
	for i, bits := range ck.StateBits {
		a.state[i] = math.Float64frombits(bits)
	}
	// Replace the bootstrap event population staged by New with the
	// checkpointed one: spilled events keep their slices, and the active
	// slice's queue population re-enters through its spill buffer so the
	// normal swap-in path rebuilds the queue.
	a.spill = newSpillBuffers(len(a.slices))
	a.pendingInserts = nil
	a.availInserts = 0
	for s, evs := range ck.Spill {
		for _, ce := range evs {
			a.spill.add(s, fromCheckpointEvent(ce))
		}
	}
	for _, ce := range ck.Queue {
		ev := fromCheckpointEvent(ce)
		s := a.sliceOf(ev.Target)
		if s == -1 {
			return nil, fmt.Errorf("core: checkpoint event target %d outside graph", ev.Target)
		}
		a.spill.add(s, ev)
	}
	c := ck.Counters
	a.initialEvents = c.InitialEvents
	a.eventsProcessed = c.EventsProcessed
	a.eventsEmitted = c.EventsEmitted
	a.spilledEvents = c.SpilledEvents
	a.sliceSwitches = c.SliceSwitches
	a.drainStalls = c.DrainStalls
	a.extraVertexUseful = c.ExtraVertexUseful
	a.discardedEvents = c.DiscardedEvents
	a.foldInserted = c.FoldInserted
	a.foldCoalesced = c.FoldCoalesced
	a.swapReadAddr = c.SwapReadAddr
	a.spillWriteAddr = c.SpillWriteAddr
	a.spillCarry = c.SpillCarry
	a.globalStop = c.GlobalStop
	a.round = ck.Round
	a.roundLog = make([]RoundStats, len(ck.RoundLog))
	for i, cr := range ck.RoundLog {
		a.roundLog[i] = RoundStats{
			Round: cr.Round, Slice: cr.Slice,
			Produced: cr.Produced, Coalesced: cr.Coalesced,
			Processed: cr.Processed, Remaining: cr.Remaining,
			Progress:  math.Float64frombits(cr.ProgressBits),
			Lookahead: cr.Lookahead,
		}
	}
	a.engine.FastForward(ck.Cycle)
	s := ck.Slice
	if a.spill.count(s) == 0 {
		if n := a.spill.nextNonEmpty(s); n != -1 {
			s = n
		}
	}
	// Uncharged activation: checkpoint restore is host-mediated, so the
	// re-inserted population pays insertion cycles but no DRAM reads.
	a.activateSlice(s, false)
	return a, nil
}

// WriteCheckpoint atomically serializes ck to path (temp file + rename), so
// a crash mid-write never corrupts the previous checkpoint.
func WriteCheckpoint(path string, ck *Checkpoint) error {
	return atomicio.WriteJSON(path, ck, "")
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := atomicio.ReadJSON(path, ck); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return ck, nil
}
