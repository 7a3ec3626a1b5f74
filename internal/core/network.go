package core

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
	// queue holds the buffered events in arrival order. It is a window of
	// buf: deliver advances its start past the scanned window, and offer
	// moves it back to buf's start only when it reaches buf's end.
	queue []Event
	buf   []Event

	// delivered is a cumulative counter for reports.
	delivered int64

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
	if len(x.queue) == cap(x.queue) {
		// The queue reached buf's end. Compact into buf while that frees
		// at least half of it, else into a buf twice the size, so each
		// event is copied O(1) times however deep the backlog.
		if 2*len(x.queue) >= cap(x.buf) {
			x.buf = make([]Event, 0, max(2*cap(x.buf), 2*x.ports))
		}
		x.queue = x.buf[:copy(x.buf[:cap(x.buf)], x.queue)]
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
	for _, ev := range x.queue {
		// A hardware crossbar arbitrates over a bounded window, not the
		// whole buffer; cap the scan so deep backlogs also bound sim cost.
		if moved >= x.ports || scanned >= 8*x.ports {
			break
		}
		scanned++
		bin := q.binOf(ev.Target)
		if bin == drainingBin || used[bin] {
			kept = append(kept, ev)
			continue
		}
		used[bin] = true
		if q.insert(ev) {
			coalesced++
		}
		x.delivered++
		moved++
	}
	// The queue becomes kept followed by the unscanned tail. Move whichever
	// is shorter: the tail back to meet kept, or kept (at most one scan
	// window) forward to meet the tail, advancing the queue's start past the
	// delivered events. A deep backlog is then never copied per cycle.
	if tail := x.queue[scanned:]; len(tail) <= len(kept) {
		x.queue = append(kept, tail...)
	} else {
		start := scanned - len(kept)
		copy(x.queue[start:scanned], kept)
		x.queue = x.queue[start:]
	}
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
