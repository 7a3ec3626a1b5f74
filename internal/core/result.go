package core

import "graphpulse/internal/sim/telemetry"

// LookaheadBuckets is the number of Figure 8 lookahead classes:
// 0, <100, <200, <300, <400, ≥400.
const LookaheadBuckets = 6

// LookaheadBucketNames labels the Figure 8 classes in order.
var LookaheadBucketNames = [LookaheadBuckets]string{
	"0", "<100", "<200", "<300", "<400", ">400",
}

// LookaheadBucket maps a lookahead tag to its Figure 8 class index.
func LookaheadBucket(l uint32) int {
	switch {
	case l == 0:
		return 0
	case l < 100:
		return 1
	case l < 200:
		return 2
	case l < 300:
		return 3
	case l < 400:
		return 4
	default:
		return 5
	}
}

// RoundStats records one scheduler round (one full pass over the bins).
// Figure 4 plots Produced vs Remaining per round; Figure 8 plots the
// Lookahead histogram of processed events per round.
type RoundStats struct {
	Round int
	// Slice is the active slice during this round.
	Slice int
	// Produced counts events that arrived at the queue this round
	// (before coalescing).
	Produced int64
	// Coalesced counts arrivals absorbed into existing events.
	Coalesced int64
	// Processed counts events issued to processors this round.
	Processed int64
	// Remaining is queue population at the round barrier (events that will
	// be processed in later rounds).
	Remaining int64
	// Progress is the accumulated global-progress metric (Section IV-C),
	// e.g. Σ|Δ| for PageRank; 0 for algorithms without a Progressor.
	Progress float64
	// Lookahead[i] counts processed events in Figure 8 class i.
	Lookahead [LookaheadBuckets]int64
}

// Result is the outcome of one accelerator run: the converged vertex values
// plus every measurement the evaluation figures are built from.
type Result struct {
	Config    string
	Algorithm string

	// Values is the converged vertex state, indexed by global vertex id.
	Values []float64

	// Cycles and Seconds are simulated time (Seconds = Cycles / ClockHz).
	Cycles  uint64
	Seconds float64
	// Rounds counts scheduler rounds across all slices.
	Rounds int
	// Slices is the number of partitions the graph required; SliceSwitches
	// counts swap-ins after the first.
	Slices        int
	SliceSwitches int64

	// Event-flow counters.
	EventsProcessed int64
	EventsEmitted   int64
	EventsCoalesced int64
	SpilledEvents   int64

	// Off-chip traffic (Figures 11 and 12).
	MemReads    int64
	MemWrites   int64
	BytesMoved  int64
	BytesUseful int64
	Utilization float64
	RowHits     int64
	RowMisses   int64

	// DiscardedEvents counts events purged by global termination (the
	// event-conservation balance sheet's "discarded" term).
	DiscardedEvents int64

	// StageMeans is Figure 13: mean cycles per event in each execution
	// stage (keys are StageNames).
	StageMeans map[string]float64
	// ProcBreakdown and GenBreakdown are Figure 14: fraction of unit
	// cycles per state.
	ProcBreakdown map[string]float64
	GenBreakdown  map[string]float64

	// RoundLog backs Figures 4 and 8.
	RoundLog []RoundStats

	// TerminatedGlobally reports that the optional global termination
	// condition (Section IV-C) fired before the queue drained naturally.
	TerminatedGlobally bool

	// Telemetry holds the sampled time series when Config.Telemetry was
	// enabled (nil otherwise). Export with WriteCSV / WriteChromeTrace;
	// every series is documented in METRICS.md.
	Telemetry *telemetry.Recorder
}

// OffChipAccesses returns total line transfers (Figure 11's metric).
func (r *Result) OffChipAccesses() int64 { return r.MemReads + r.MemWrites }
