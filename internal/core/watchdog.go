package core

import (
	"errors"
	"fmt"
)

// The event-conservation watchdog audits the paper's §IV correctness
// invariant at runtime: no event is ever lost between generation,
// coalescing, spilling, and scheduling. Every event the model has ever
// owned must be accounted for as either consumed (processed, coalesced
// into another event, or deliberately discarded by global termination) or
// still resident somewhere in the machine:
//
//	initial + emitted  =  processed + coalesced + discarded + resident
//
// where resident sums the coalescing queue, the delivery network, staged
// drain blocks, processor input buffers, spill buffers, and the swap-in
// pipeline. The balance holds exactly at the end of every cycle, so any
// sustained nonzero imbalance is a lost (or manufactured) event — an
// injected drop fault, or a genuine scheduler bug. Without the watchdog
// such a loss either wedges the run until MaxCycles (a dangling vertex
// waits forever) or, worse, lets it terminate with silently wrong values.

// defaultWatchdogInterval is the audit period in cycles when
// Config.WatchdogInterval is zero.
const defaultWatchdogInterval = 2048

// watchdogStrikes is how many consecutive imbalanced audits arm the trip.
// A real loss is permanent, so it accumulates strikes at every audit;
// requiring several guards against a future transiently-imbalanced code
// path turning into a false positive.
const watchdogStrikes = 3

// ErrConservation reports a violated event-conservation invariant. Errors
// returned by Run wrap it together with a *ConservationError snapshot:
//
//	var ce *core.ConservationError
//	if errors.As(err, &ce) { ... ce.Imbalance, ce.Resident ... }
var ErrConservation = errors.New("core: event conservation violated")

// ResidentBreakdown itemizes where events were resident when the watchdog
// tripped.
type ResidentBreakdown struct {
	// Queue is the coalescing-queue population of the active slice.
	Queue int64
	// Network is the delivery crossbar's buffered events.
	Network int64
	// Staged counts events in drained-but-undispatched row blocks.
	Staged int64
	// ProcInputs counts events in processor input buffers.
	ProcInputs int64
	// Spill counts events parked in inter-slice spill buffers.
	Spill int64
	// PendingInserts counts events in the slice swap-in pipeline.
	PendingInserts int64
	// Egress and Inflight count events on the cluster interconnect
	// (zero on single-chip runs).
	Egress   int64
	Inflight int64
}

// Total sums every resident location.
func (rb ResidentBreakdown) Total() int64 {
	return rb.Queue + rb.Network + rb.Staged + rb.ProcInputs +
		rb.Spill + rb.PendingInserts + rb.Egress + rb.Inflight
}

// ConservationError is the diagnostic snapshot attached to a watchdog trip.
// It unwraps to ErrConservation.
type ConservationError struct {
	// Cycle is when the watchdog tripped.
	Cycle uint64
	// Imbalance is (Initial+Emitted) − (Processed+Coalesced+Discarded) −
	// resident: positive means events vanished, negative means events were
	// manufactured.
	Imbalance int64

	// The balance-sheet terms at trip time.
	Initial   int64
	Emitted   int64
	Processed int64
	Coalesced int64
	// Discarded counts events deliberately dropped by global termination.
	Discarded int64
	// Redelivered counts duplicate deliveries absorbed by the coalescer
	// (informational; redeliveries never unbalance the sheet).
	Redelivered int64
	// Resident itemizes where the surviving events sat.
	Resident ResidentBreakdown

	// Faults reports injected-fault counts by point name when a fault
	// injector was attached (nil otherwise) — on an injection run the
	// imbalance should equal the injected drop/kill count.
	Faults map[string]int64
}

// Error implements error with the full imbalance snapshot.
func (e *ConservationError) Error() string {
	return fmt.Sprintf("%v: imbalance %+d at cycle %d "+
		"(initial %d + emitted %d != processed %d + coalesced %d + discarded %d + resident %d "+
		"[queue %d net %d staged %d procs %d spill %d swapin %d egress %d inflight %d]; redelivered %d)",
		ErrConservation, e.Imbalance, e.Cycle,
		e.Initial, e.Emitted, e.Processed, e.Coalesced, e.Discarded, e.Resident.Total(),
		e.Resident.Queue, e.Resident.Network, e.Resident.Staged, e.Resident.ProcInputs,
		e.Resident.Spill, e.Resident.PendingInserts, e.Resident.Egress, e.Resident.Inflight,
		e.Redelivered)
}

// Unwrap lets errors.Is(err, ErrConservation) match.
func (e *ConservationError) Unwrap() error { return ErrConservation }

// watchdogInterval returns the audit period for this accelerator.
func (a *Accelerator) watchdogInterval() uint64 {
	if a.cfg.WatchdogInterval > 0 {
		return a.cfg.WatchdogInterval
	}
	return defaultWatchdogInterval
}

// residentEvents itemizes every event currently owned by this chip.
func (a *Accelerator) residentEvents() ResidentBreakdown {
	rb := ResidentBreakdown{
		Queue:          a.queue.population,
		Network:        int64(len(a.xbar.queue)),
		Spill:          a.spill.total,
		PendingInserts: int64(len(a.pendingInserts)),
	}
	for _, blk := range a.staging {
		rb.Staged += int64(len(blk.events) - blk.next)
	}
	for _, p := range a.procs {
		rb.ProcInputs += int64(p.input.Len())
	}
	return rb
}

// coalescedTotal returns events absorbed by coalescing since the run
// started, across the per-slice queue replacements.
func (a *Accelerator) coalescedTotal() int64 {
	return a.foldCoalesced + (a.queue.coalesced - a.snapCoalesced)
}

// eventImbalance evaluates the conservation balance sheet. Zero on a
// healthy chip; on a cluster member the interconnect terms are settled by
// the cluster-level audit instead.
func (a *Accelerator) eventImbalance() int64 {
	return a.initialEvents + a.eventsEmitted -
		a.eventsProcessed - a.coalescedTotal() - a.discardedEvents -
		a.residentEvents().Total()
}

// conservationError builds the diagnostic snapshot for a trip at `cycle`.
func (a *Accelerator) conservationError(cycle uint64, imbalance int64) *ConservationError {
	return &ConservationError{
		Cycle:       cycle,
		Imbalance:   imbalance,
		Initial:     a.initialEvents,
		Emitted:     a.eventsEmitted,
		Processed:   a.eventsProcessed,
		Coalesced:   a.coalescedTotal(),
		Discarded:   a.discardedEvents,
		Redelivered: a.queue.redelivered,
		Resident:    a.residentEvents(),
		Faults:      a.inj.Snapshot(),
	}
}

// watchdogCheck runs one audit at the end of a cycle. Cluster members skip
// it: remote sends and receives unbalance a chip locally by design, so the
// cluster audits the summed sheet including link buffers instead.
func (a *Accelerator) watchdogCheck(cycle uint64) {
	if a.wdErr != nil || a.remote != nil || a.phase == phaseDone {
		return
	}
	if cycle%a.watchdogInterval() != 0 {
		return
	}
	imb := a.eventImbalance()
	if imb == 0 {
		a.wdStrikes = 0
		return
	}
	a.wdStrikes++
	if a.wdStrikes >= watchdogStrikes {
		a.wdErr = a.conservationError(cycle, imb)
	}
}

// finalConservationCheck audits once more at termination, where the sheet
// must balance exactly — it catches a loss on runs too short for the
// periodic audit to accumulate strikes (a dropped event often just shrinks
// the workload, letting the run "converge" to silently wrong values).
func (a *Accelerator) finalConservationCheck() bool {
	if a.wdErr != nil || a.remote != nil {
		return a.wdErr == nil
	}
	if imb := a.eventImbalance(); imb != 0 {
		a.wdErr = a.conservationError(a.engine.Cycle(), imb)
		return false
	}
	return true
}
