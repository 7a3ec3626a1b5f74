package core

import (
	"graphpulse/internal/graph"
)

// Event is the hardware primitive of the architecture: a lightweight
// message carrying a delta to a destination vertex (Section III-A). Target
// is a *local* vertex id within the active slice except while an event sits
// in an inter-slice spill buffer, where it is global.
type Event struct {
	Target graph.VertexID
	Delta  float64
	// Lookahead measures how many earlier events' contributions this event
	// has compounded through coalescing (Figure 8's metric): coalescing two
	// events yields max(lookaheads)+1.
	Lookahead uint32
}

// coalesceLookahead combines the lookahead tags of two coalescing events.
func coalesceLookahead(a, b uint32) uint32 {
	if b > a {
		a = b
	}
	return a + 1
}
