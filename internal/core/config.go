// Package core implements the GraphPulse accelerator model: an event-driven
// asynchronous graph-processing engine with in-place coalescing event
// queues, round-based scheduling, decoupled event processors and generation
// units, and a prefetching memory path — the architecture of Sections III–V
// of the paper, at the same structural cycle-level abstraction the authors
// simulated.
//
// # Event flow
//
// One event's life, and the blocks that model it:
//
//	generation streams ──new events──▶ crossbar ──▶ coalescing queue banks
//	        ▲                                             │ (merge on hit)
//	        │ vertex updates                              ▼ round scheduler
//	   processors ◀──staged events── prefetcher ◀── drained bins
//	        │                              ▲
//	        └───vertex/edge reads──▶ DDR3 model (internal/mem)
//
// New is the single entry point: it wires these units onto a sim.Engine,
// slices graphs that exceed on-chip capacity (Section IV-F), and Run ticks
// the whole design to convergence.
//
// # Observability
//
// Every run returns aggregate counters and per-stage timings in Result.
// Config.Telemetry attaches a sampling recorder (internal/sim/telemetry)
// that captures queue occupancy, event rates, stalls, and DRAM traffic as
// bounded time series — zero-cost when disabled and read-only when
// enabled, so results are bit-identical either way. METRICS.md at the repository root catalogues
// every metric name these layers emit.
package core

import (
	"fmt"

	"graphpulse/internal/mem"
	"graphpulse/internal/sim/telemetry"
)

// Config describes one accelerator build. Two presets reproduce the paper's
// configurations: OptimizedConfig (GraphPulse with Section V optimizations,
// the headline system) and BaselineConfig (the unoptimized GraphPulse of
// Section IV used in Figure 10's "GraphPulse-Baseline" bars).
type Config struct {
	// Name labels the configuration in reports.
	Name string

	// NumProcessors is the number of event processors (8 optimized — the
	// paper notes prefetching lets it "employ fewer processors (8 in the
	// experiments)" — or 256 baseline).
	NumProcessors int
	// StreamsPerProcessor is the number of decoupled generation streams
	// attached to each processor (8×4 in the optimized design). Ignored
	// unless DecoupledGeneration.
	StreamsPerProcessor int
	// DecoupledGeneration splits processing and event generation into
	// separate units (Section V "Efficient Event Generation").
	DecoupledGeneration bool
	// Prefetch enables the input-buffer vertex prefetcher and scratchpad
	// (Section V "Prefetching").
	Prefetch bool

	// NumBins is the number of coalescing bins in the event queue (64).
	NumBins int
	// BinCols is the number of events per bin row; a drained row is a
	// block of BinCols vertices contiguous in memory.
	BinCols int
	// QueueCapacity is the number of vertex slots in the queue. A graph
	// with more vertices than this is partitioned into slices
	// (Section IV-F). 0 means size to fit the input graph.
	QueueCapacity int
	// CoalesceDisabled turns off in-place coalescing (ablation study):
	// colliding events pile up in per-slot overflow lists.
	CoalesceDisabled bool

	// InputBufferDepth is the per-processor event input buffer (the
	// prefetcher inspects it; 128 in the paper's block-prefetch design).
	InputBufferDepth int
	// ScratchpadLines is the per-processor vertex scratchpad capacity in
	// 64-byte lines (1 KB = 16 lines in Table V).
	ScratchpadLines int
	// EdgeCacheLines is the per-generation-unit edge cache capacity.
	EdgeCacheLines int
	// EdgePrefetchBlocks is the N of the N-block edge prefetcher (4).
	EdgePrefetchBlocks int

	// CrossbarPorts is the event-delivery crossbar width (16×16): at most
	// this many events enter the queue complex per cycle.
	CrossbarPorts int
	// NetworkQueueDepth bounds events buffered in the delivery network;
	// generators stall when it is full.
	NetworkQueueDepth int
	// GenQueueDepth is the per-processor generation input buffer ("Gen
	// Buffer" in Figure 13).
	GenQueueDepth int
	// ProcessLatency is the reduce pipeline depth in cycles (4-stage FPA).
	ProcessLatency int

	// GlobalProgressThreshold enables the optional global termination
	// condition of Section IV-C: if the algorithm reports progress (a
	// Progressor) and a round's accumulated progress falls below this
	// value, the computation stops at the round barrier even though events
	// remain queued. 0 disables it (default: terminate when the queue
	// empties).
	GlobalProgressThreshold float64
	// Schedule selects the bin drain order (Section IV-C notes the
	// scheduler "iterates over all bins in a round-robin manner (other
	// application-informed policies are possible)").
	Schedule SchedulePolicy
	// Mapping selects the vertex→(bin,row,col) layout. The paper's
	// column-bin-row order spreads graph clusters across bins; the
	// bin-row-col alternative (ablation) concentrates them, serializing on
	// each bin's single insertion port.
	Mapping MappingPolicy

	// Telemetry enables time-resolved sampling of queue occupancy, event
	// rates, DRAM traffic and unit stalls into Result.Telemetry (see
	// METRICS.md). The zero value disables it at zero cost; sampling only
	// reads state, so enabling it never changes simulation results.
	Telemetry telemetry.Config

	// Memory configures the off-chip DRAM model.
	Memory mem.Config
	// ClockHz converts cycles to time (1 GHz).
	ClockHz float64
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
}

// OptimizedConfig is the paper's full GraphPulse design (Table III +
// Section V): 8 processors with 4 generation streams each, prefetching,
// 64 MB / 64-bin coalescing queue, 4 DRAM channels.
func OptimizedConfig() Config {
	return Config{
		Name:                "graphpulse-opt",
		NumProcessors:       8,
		StreamsPerProcessor: 4,
		DecoupledGeneration: true,
		Prefetch:            true,
		NumBins:             64,
		BinCols:             8,
		InputBufferDepth:    128,
		ScratchpadLines:     16,
		EdgeCacheLines:      8,
		EdgePrefetchBlocks:  4,
		CrossbarPorts:       16,
		NetworkQueueDepth:   512,
		GenQueueDepth:       8,
		ProcessLatency:      4,
		Memory:              mem.DefaultConfig(),
		ClockHz:             1e9,
		MaxCycles:           5_000_000_000,
	}
}

// BaselineConfig is the unoptimized GraphPulse of Section IV: 256 simple
// processors that read vertices directly from memory and generate outgoing
// events themselves.
func BaselineConfig() Config {
	c := OptimizedConfig()
	c.Name = "graphpulse-base"
	c.NumProcessors = 256
	c.StreamsPerProcessor = 0
	c.DecoupledGeneration = false
	c.Prefetch = false
	c.InputBufferDepth = 2
	return c
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.NumProcessors < 1:
		return fmt.Errorf("core: NumProcessors=%d", c.NumProcessors)
	case c.DecoupledGeneration && c.StreamsPerProcessor < 1:
		return fmt.Errorf("core: decoupled generation with %d streams", c.StreamsPerProcessor)
	case c.NumBins < 1:
		return fmt.Errorf("core: NumBins=%d", c.NumBins)
	case c.BinCols < 1:
		return fmt.Errorf("core: BinCols=%d", c.BinCols)
	case c.QueueCapacity < 0:
		return fmt.Errorf("core: QueueCapacity=%d", c.QueueCapacity)
	case c.InputBufferDepth < 1:
		return fmt.Errorf("core: InputBufferDepth=%d", c.InputBufferDepth)
	case c.Prefetch && c.ScratchpadLines < 1:
		return fmt.Errorf("core: Prefetch with ScratchpadLines=%d", c.ScratchpadLines)
	case c.DecoupledGeneration && c.EdgeCacheLines < 1:
		return fmt.Errorf("core: EdgeCacheLines=%d", c.EdgeCacheLines)
	case c.CrossbarPorts < 1:
		return fmt.Errorf("core: CrossbarPorts=%d", c.CrossbarPorts)
	case c.NetworkQueueDepth < c.CrossbarPorts:
		return fmt.Errorf("core: NetworkQueueDepth=%d < CrossbarPorts", c.NetworkQueueDepth)
	case c.GenQueueDepth < 1:
		return fmt.Errorf("core: GenQueueDepth=%d", c.GenQueueDepth)
	case c.ProcessLatency < 1:
		return fmt.Errorf("core: ProcessLatency=%d", c.ProcessLatency)
	case c.ClockHz <= 0:
		return fmt.Errorf("core: ClockHz=%g", c.ClockHz)
	case c.MaxCycles == 0:
		return fmt.Errorf("core: MaxCycles=0")
	case c.Telemetry.MaxSamples < 0:
		return fmt.Errorf("core: Telemetry.MaxSamples=%d", c.Telemetry.MaxSamples)
	}
	return c.Memory.Validate()
}

// SchedulePolicy selects the order bins are drained within a round.
type SchedulePolicy int

const (
	// ScheduleRoundRobin drains bins 0..N-1 in order every round (the
	// paper's default).
	ScheduleRoundRobin SchedulePolicy = iota
	// ScheduleDensestFirst drains bins in descending occupancy order,
	// prioritizing the heaviest work (an application-informed policy).
	ScheduleDensestFirst
)

// MappingPolicy selects the vertex→slot layout of the coalescing queue.
type MappingPolicy int

const (
	// MapColBinRow is the paper's layout: "Vertices are mapped in
	// column-bin-row order so that clusters in the graph are likely to
	// spread over multiple bins."
	MapColBinRow MappingPolicy = iota
	// MapBinRowCol fills one bin completely before the next (ablation):
	// contiguous vertex ranges — and hence graph clusters — land in one bin.
	MapBinRowCol
)

// Simulated physical layout. The three graph data regions live at disjoint
// address bases so channel/bank interleaving and row-buffer behaviour are
// realistic. Vertex records are 16 bytes: the 8-byte property value plus
// the edge offset/degree hint the paper encodes alongside it ("we pass this
// information to the generation unit encoded in the vertex data").
const (
	vertexRecordBytes = 16
	vertexBase        = 0x0000_0000_0000
	edgeBase          = 0x0100_0000_0000
	spillBase         = 0x0200_0000_0000
)
