package core

import (
	"context"
	"fmt"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/partition"
	"graphpulse/internal/mem"
	"graphpulse/internal/sim"
	"graphpulse/internal/sim/telemetry"
)

// Cluster is the multi-accelerator execution strategy the paper sketches
// but does not explore (Section IV-F, option b): "multiple accelerator
// chips can house all slices while an interconnection network streams
// inter-slice events in real-time."
//
// Each chip owns one contiguous vertex slice, with its own coalescing
// queue, processors, generation streams, and DRAM channels. Events bound
// for another chip leave through a bounded egress port onto a
// point-to-point link with fixed latency and per-cycle bandwidth, and are
// injected into the destination chip's delivery crossbar on arrival.
// Chips run fully asynchronously — there is no inter-chip round barrier —
// and the cluster terminates when every chip is parked idle with no events
// in flight anywhere.
type Cluster struct {
	cfg    ClusterConfig
	alg    algorithms.Algorithm
	g      graph.Adjacency
	engine *sim.Engine
	chips  []*Accelerator
	slices []partition.Slice

	// egress[i] holds events leaving chip i, waiting for link bandwidth.
	egress []sim.FIFO[Event]
	// inflight[i] holds events traveling to chip i.
	inflight [][]linkMsg

	sent, delivered int64

	wdStrikes int
	wdErr     *ConservationError

	tel *telemetry.Recorder // shared across chips; nil when disabled
}

type linkMsg struct {
	ev       Event // Target is a global vertex id
	arriveAt uint64
}

// ClusterConfig sizes a multi-accelerator system.
type ClusterConfig struct {
	// Chip configures each accelerator. QueueCapacity is ignored (each
	// chip's queue is sized to its slice).
	Chip Config
	// Chips is the number of accelerators (= slices).
	Chips int
	// LinkLatency is the chip-to-chip event latency in cycles.
	LinkLatency uint64
	// LinkBandwidth is the events per cycle each chip may send.
	LinkBandwidth int
	// EgressDepth bounds the per-chip egress buffer; full = backpressure
	// on the generation streams.
	EgressDepth int
}

// DefaultClusterConfig returns a 4-chip system with a modest serial link.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Chip:          OptimizedConfig(),
		Chips:         4,
		LinkLatency:   50,
		LinkBandwidth: 4,
		EgressDepth:   1024,
	}
}

// Validate reports the first invalid field.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Chips < 2:
		return fmt.Errorf("core: cluster needs ≥2 chips, got %d", c.Chips)
	case c.LinkBandwidth < 1:
		return fmt.Errorf("core: LinkBandwidth=%d", c.LinkBandwidth)
	case c.EgressDepth < 1:
		return fmt.Errorf("core: EgressDepth=%d", c.EgressDepth)
	}
	return c.Chip.Validate()
}

// NewCluster partitions g across cfg.Chips accelerators.
func NewCluster(cfg ClusterConfig, g graph.Adjacency, alg algorithms.Algorithm) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n < cfg.Chips {
		return nil, fmt.Errorf("core: %d vertices across %d chips", n, cfg.Chips)
	}
	per := (n + cfg.Chips - 1) / cfg.Chips
	p, err := partition.Contiguous(g, per, 2)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg:      cfg,
		alg:      alg,
		g:        g,
		engine:   sim.NewEngine(),
		slices:   p.Slices,
		egress:   make([]sim.FIFO[Event], len(p.Slices)),
		inflight: make([][]linkMsg, len(p.Slices)),
	}
	// One shared functional state array: each chip only writes its slice.
	state := make([]float64, n)
	for v := 0; v < n; v++ {
		state[v] = alg.InitState(graph.VertexID(v))
	}
	initial := alg.InitialEvents(g)
	// One recorder shared by all chips and the interconnect, registered
	// last so it samples end-of-cycle state; probe components are prefixed
	// "chipN/" per chip.
	cl.tel = telemetry.New(cfg.Chip.Telemetry)
	for i, sl := range cl.slices {
		chipCfg := cfg.Chip
		chipCfg.Name = fmt.Sprintf("%s-chip%d", chipCfg.Name, i)
		chipCfg.QueueCapacity = 0
		chip, err := newChip(chipCfg, g, alg, sl, state, cl.remoteFunc(i), initial, cl.engine)
		if err != nil {
			return nil, err
		}
		cl.chips = append(cl.chips, chip)
		cl.engine.Register(chip.memory)
		cl.engine.Register(chip)
		if cl.tel != nil {
			chip.tel = cl.tel
			chip.registerTelemetry(cl.tel, fmt.Sprintf("chip%d/", i))
		}
	}
	cl.engine.Register(cl)
	if cl.tel != nil {
		cl.registerTelemetry(cl.tel)
		cl.engine.Register(cl.tel)
	}
	return cl, nil
}

// newChip builds one cluster member: an accelerator whose single slice is
// sl, sharing the functional state array, with out-of-slice events routed
// through remote.
func newChip(cfg Config, g graph.Adjacency, alg algorithms.Algorithm, sl partition.Slice,
	state []float64, remote func(Event) bool, initial []algorithms.InitialEvent,
	engine *sim.Engine) (*Accelerator, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Accelerator{
		cfg:       cfg,
		alg:       alg,
		g:         g,
		engine:    engine, // the cluster's shared clock
		edgeBytes: algorithms.EdgeRecordBytes(alg),
		stage:     newStageTimer(),
		remote:    remote,
		state:     state,
	}
	a.prog, _ = alg.(algorithms.Progressor)
	a.memory = mem.New(cfg.Memory)
	a.fetch = mem.NewFetcher(a.memory)
	a.onSpillLine = a.spillLineDone
	a.slices = []partition.Slice{sl}
	a.spill = newSpillBuffers(1)
	a.procs = make([]*processor, cfg.NumProcessors)
	for i := range a.procs {
		a.procs[i] = newProcessor(a, i)
	}
	if cfg.DecoupledGeneration {
		a.gens = make([]*genUnit, cfg.NumProcessors)
		for i := range a.gens {
			a.gens[i] = newGenUnit(a)
		}
	}
	a.xbar = newCrossbar(cfg.CrossbarPorts, cfg.NetworkQueueDepth)
	for _, ev := range initial {
		if sl.Contains(ev.Vertex) {
			a.spill.add(0, Event{Target: ev.Vertex, Delta: ev.Delta})
			a.initialEvents++
		}
	}
	a.activateSlice(0, false)
	return a, nil
}

// chipOf returns the index of the chip owning global vertex v.
func (cl *Cluster) chipOf(v graph.VertexID) int {
	lo, hi := 0, len(cl.slices)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case v < cl.slices[mid].Lo:
			hi = mid
		case v >= cl.slices[mid].Hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// remoteFunc builds chip i's egress hook.
func (cl *Cluster) remoteFunc(i int) func(Event) bool {
	return func(ev Event) bool {
		if cl.egress[i].Len() >= cl.cfg.EgressDepth {
			return false
		}
		cl.egress[i].Push(ev)
		return true
	}
}

// Name implements sim.Component.
func (cl *Cluster) Name() string { return "cluster-interconnect" }

// Tick moves events across the interconnect: egress → in-flight (bounded
// by link bandwidth), arrived in-flight → destination crossbar.
func (cl *Cluster) Tick(cycle uint64) {
	for i := range cl.egress {
		moved := 0
		for moved < cl.cfg.LinkBandwidth && cl.egress[i].Len() > 0 {
			ev := cl.egress[i].Pop()
			moved++
			dst := cl.chipOf(ev.Target)
			cl.inflight[dst] = append(cl.inflight[dst], linkMsg{ev: ev, arriveAt: cycle + cl.cfg.LinkLatency})
			cl.sent++
		}
	}
	for i := range cl.inflight {
		chip := cl.chips[i]
		kept := cl.inflight[i][:0]
		for _, m := range cl.inflight[i] {
			if m.arriveAt > cycle {
				kept = append(kept, m)
				continue
			}
			local := m.ev
			local.Target -= cl.slices[i].Lo
			if !chip.xbar.offer(local) {
				kept = append(kept, m) // destination crossbar full; retry
				continue
			}
			cl.delivered++
		}
		cl.inflight[i] = kept
	}
	cl.watchdogCheck(cycle)
}

// eventImbalance audits conservation cluster-wide. A chip's local sheet is
// unbalanced by remote traffic (a sent event is +1 at the sender until it
// lands at the receiver, where it counts −1), so the per-chip imbalances
// plus the link buffers must cancel: any residue is an event lost on the
// interconnect or inside a chip.
func (cl *Cluster) eventImbalance() int64 {
	var imb int64
	for i, chip := range cl.chips {
		imb += chip.eventImbalance()
		imb -= int64(cl.egress[i].Len() + len(cl.inflight[i]))
	}
	return imb
}

// watchdogCheck is the cluster-level conservation audit, run on the shared
// clock with the same strike policy as the single-chip watchdog.
func (cl *Cluster) watchdogCheck(cycle uint64) {
	if cl.wdErr != nil {
		return
	}
	iv := cl.cfg.Chip.WatchdogInterval
	if iv == 0 {
		iv = defaultWatchdogInterval
	}
	if cycle%iv != 0 {
		return
	}
	imb := cl.eventImbalance()
	if imb == 0 {
		cl.wdStrikes = 0
		return
	}
	cl.wdStrikes++
	if cl.wdStrikes >= watchdogStrikes {
		cl.wdErr = cl.conservationError(cycle, imb)
	}
}

// conservationError aggregates the chips' balance sheets plus the link
// buffers into one diagnostic snapshot.
func (cl *Cluster) conservationError(cycle uint64, imbalance int64) *ConservationError {
	e := &ConservationError{Cycle: cycle, Imbalance: imbalance}
	for i, chip := range cl.chips {
		e.Initial += chip.initialEvents
		e.Emitted += chip.eventsEmitted
		e.Processed += chip.eventsProcessed
		e.Coalesced += chip.coalescedTotal()
		e.Discarded += chip.discardedEvents
		rb := chip.residentEvents()
		e.Resident.Queue += rb.Queue
		e.Resident.Network += rb.Network
		e.Resident.Staged += rb.Staged
		e.Resident.ProcInputs += rb.ProcInputs
		e.Resident.Spill += rb.Spill
		e.Resident.PendingInserts += rb.PendingInserts
		e.Resident.Egress += int64(cl.egress[i].Len())
		e.Resident.Inflight += int64(len(cl.inflight[i]))
	}
	return e
}

// done reports global termination: every chip parked idle, no interconnect
// traffic, no in-chip work. A watchdog trip also stops the clock so Run can
// surface the conservation error.
func (cl *Cluster) done() bool {
	if cl.wdErr != nil {
		return true
	}
	for i, chip := range cl.chips {
		if chip.phase != phaseIdle || chip.queue.population > 0 || !chip.xbar.empty() {
			return false
		}
		if cl.egress[i].Len() > 0 || len(cl.inflight[i]) > 0 {
			return false
		}
	}
	return true
}

// ClusterResult aggregates a cluster run.
type ClusterResult struct {
	Values  []float64
	Cycles  uint64
	Seconds float64
	Chips   int
	// InterChipEvents counts events that crossed the interconnect.
	InterChipEvents int64
	// EventsProcessed sums across chips.
	EventsProcessed int64
	// OffChipAccesses sums all chips' DRAM line transfers.
	OffChipAccesses int64
	// PerChip carries each chip's full result.
	PerChip []*Result
	// Telemetry is the cluster-wide recorder ("chipN/…" and "interconnect"
	// components) when Chip.Telemetry was enabled; nil otherwise.
	Telemetry *telemetry.Recorder
}

// Run simulates the cluster to global termination.
func (cl *Cluster) Run() (*ClusterResult, error) { return cl.RunCtx(nil) }

// RunCtx runs like Run with wall-clock cancellation: when ctx is done the
// simulation stops with an error wrapping sim.ErrCanceled. It fails with an
// error wrapping ErrConservation when the cluster-wide event-conservation
// watchdog trips (an event lost on the interconnect or inside a chip).
func (cl *Cluster) RunCtx(ctx context.Context) (*ClusterResult, error) {
	err := cl.engine.RunUntil(ctx, cl.done, cl.cfg.Chip.MaxCycles)
	if cl.wdErr != nil {
		return nil, cl.wdErr
	}
	if err != nil {
		return nil, err
	}
	// Final audit: a cluster can quiesce with events missing before the
	// periodic watchdog accumulates its strikes. Global termination with an
	// unbalanced sheet is still a lost event.
	if imb := cl.eventImbalance(); imb != 0 {
		return nil, cl.conservationError(cl.engine.Cycle(), imb)
	}
	// Flush chip scratchpads so final state is architecturally visible.
	for _, chip := range cl.chips {
		chip.flushScratchpads()
	}
	res := &ClusterResult{
		Values:          cl.chips[0].state,
		Cycles:          cl.engine.Cycle(),
		Seconds:         cl.engine.SecondsAt(cl.cfg.Chip.ClockHz),
		Chips:           len(cl.chips),
		InterChipEvents: cl.delivered,
		Telemetry:       cl.tel,
	}
	for _, chip := range cl.chips {
		r := chip.result()
		res.PerChip = append(res.PerChip, r)
		res.EventsProcessed += r.EventsProcessed
		res.OffChipAccesses += r.OffChipAccesses()
	}
	return res, nil
}
