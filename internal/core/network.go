package core

import "graphpulse/internal/sim/fault"

// crossbar models the event-delivery network between generation streams and
// the coalescing bins: a 16×16 crossbar where groups of streams share input
// ports (Section IV-E). Per cycle it moves at most `ports` events into the
// queue complex, at most one per destination bin (each bin has a single
// pipelined insertion port), and none into a bin that is being drained that
// cycle ("Insertion to the same bin is stalled in the cycles in which a
// removal operation is active").
//
// Buffering inside the network is bounded; offer fails when it is full,
// which backpressures the generation streams.
type crossbar struct {
	ports int
	depth int
	queue []Event

	// delivered is a cumulative counter for reports.
	delivered int64

	// inj, when non-nil, injects delivery faults at the queue-insert
	// boundary; the counters record what it did to this crossbar.
	inj        *fault.Injector
	dropped    int64 // events lost at delivery (conservation watchdog detects)
	duplicated int64 // events redelivered (coalescer discards idempotently)
	reordered  int64 // buffer-order swaps (harmless: reduce is commutative)

	binUsed []bool // reusable per-cycle scratch
}

func newCrossbar(ports, depth int) *crossbar {
	return &crossbar{ports: ports, depth: depth}
}

// offer enqueues an event for delivery; false means the network is full.
func (x *crossbar) offer(ev Event) bool {
	if len(x.queue) >= x.depth {
		return false
	}
	x.queue = append(x.queue, ev)
	return true
}

// empty reports whether no events are buffered.
func (x *crossbar) empty() bool { return len(x.queue) == 0 }

// deliver moves up to `ports` events into q, one per bin, skipping the
// draining bin. Virtual-output-queue behaviour: a blocked head does not
// block events for other bins.
func (x *crossbar) deliver(q *coalescingQueue, drainingBin int) (coalesced int) {
	if len(x.queue) == 0 {
		return 0
	}
	// Reorder fault: swap two buffered events before arbitration, perturbing
	// delivery order. Coalescing reduce operators are commutative, so this
	// must never change results — the conformance suite checks exactly that.
	if len(x.queue) >= 2 && x.inj.Decide(fault.PointQueueReorder) {
		i := x.inj.Pick(fault.PointQueueReorder, len(x.queue))
		j := x.inj.Pick(fault.PointQueueReorder, len(x.queue))
		x.queue[i], x.queue[j] = x.queue[j], x.queue[i]
		x.reordered++
	}
	if len(x.binUsed) < q.bins {
		x.binUsed = make([]bool, q.bins)
	}
	used := x.binUsed
	for i := range used {
		used[i] = false
	}
	moved := 0
	scanned := 0
	kept := x.queue[:0]
	for i, ev := range x.queue {
		// A hardware crossbar arbitrates over a bounded window, not the
		// whole buffer; cap the scan so deep backlogs also bound sim cost.
		if moved >= x.ports || scanned >= 8*x.ports {
			kept = append(kept, x.queue[i:]...)
			break
		}
		scanned++
		bin := q.binOf(ev.Target)
		if bin == drainingBin || used[bin] {
			kept = append(kept, ev)
			continue
		}
		used[bin] = true
		// Drop fault: the event vanishes between the network and the queue's
		// insertion port. Nothing recovers it here — the event-conservation
		// watchdog must notice the balance-sheet hole and fail the run.
		if x.inj.Decide(fault.PointQueueDrop) {
			x.dropped++
			moved++
			continue
		}
		if q.insert(ev) {
			coalesced++
		}
		// Duplicate fault: the same event arrives twice (at-least-once
		// delivery). The second copy carries the Redelivered mark and the
		// coalescer discards it, so the delta is applied exactly once.
		if x.inj.Decide(fault.PointQueueDup) {
			dup := ev
			dup.Redelivered = true
			q.insert(dup)
			x.duplicated++
		}
		x.delivered++
		moved++
	}
	x.queue = kept
	return coalesced
}

// spillBuffers hold events bound for inactive slices (Section IV-F). Events
// are appended in arrival order and streamed back when their slice is
// activated; ordering is irrelevant for correctness ("the events do not
// require any particular order for storing and retrieval").
type spillBuffers struct {
	perSlice [][]Event
	total    int64
}

func newSpillBuffers(slices int) *spillBuffers {
	return &spillBuffers{perSlice: make([][]Event, slices)}
}

// add stores an event (with a global vertex id) bound for slice s.
func (s *spillBuffers) add(slice int, ev Event) {
	s.perSlice[slice] = append(s.perSlice[slice], ev)
	s.total++
}

// take removes and returns all events spilled for slice s.
func (s *spillBuffers) take(slice int) []Event {
	out := s.perSlice[slice]
	s.perSlice[slice] = nil
	s.total -= int64(len(out))
	return out
}

// count returns events spilled for slice s.
func (s *spillBuffers) count(slice int) int { return len(s.perSlice[slice]) }

// nextNonEmpty returns the first slice index after `from` (cyclically) with
// spilled events, or -1 if none anywhere.
func (s *spillBuffers) nextNonEmpty(from int) int {
	n := len(s.perSlice)
	for i := 1; i <= n; i++ {
		c := (from + i) % n
		if len(s.perSlice[c]) > 0 {
			return c
		}
	}
	return -1
}
