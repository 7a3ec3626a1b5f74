package algorithms

import (
	"math/bits"
	"sort"

	"graphpulse/internal/graph"
)

// Worklist is the coalescing solvers' vertex queue, the software form of
// the paper's occupancy bit-vector (Sections IV-B to IV-D): one bit per
// vertex of the owner's range [lo, hi), read in ascending order the way
// the priority encoder reads it and drained in rounds. The occupancy bit
// is also the coalescing test: Push reports false for a vertex already
// queued, whose pending delta the caller has just reduced in place.
//
// Pop sweeps the graph's slices cyclically, the paper's Section IV-F
// schedule: a visit pops, in ascending vertex order, what its slice held
// when the sweep arrived. A vertex pushed into the slice being visited is
// marked held and waits for the next visit, so an out-of-core store swaps
// each slice in once per sweep instead of once per activation, and no
// slice is starved. Slice boundaries come from the graph
// (graph.SliceBoundaries). A graph that is not sliced — every in-RAM
// *graph.CSR — is one slice, so each round pops every vertex queued when
// the round began, lowest id first, and reads the rows nearly in order.
type Worklist struct {
	queued []uint64 // bit i: vertex lo+i is queued
	held   []uint64 // bit i: vertex lo+i was pushed during its slice's visit
	// bit j: queued[j] is not zero. The priority encoder's second level:
	// a sparse round finds its next vertex without reading every word.
	nonzero []uint64
	lo      graph.VertexID
	cuts    []int // slice starts as offsets from lo, ascending, then hi-lo
	// The slice being visited is [start, end), offsets from lo; before the
	// first Pop no slice is visited. The sweep's cursor is in word, and
	// ready holds that word's vertices still to pop on this visit.
	start, end, word int
	ready            uint64
	total            int
}

// NewWorklist returns an empty worklist for the vertices [lo, hi) of g.
func NewWorklist(g graph.Adjacency, lo, hi graph.VertexID) *Worklist {
	// The graph's boundaries inside (lo, hi) cut the owner's range; a graph
	// that is not sliced contributes none.
	cuts := make([]int, 1, 2)
	for _, b := range graph.SliceBoundaries(g) {
		if b > lo && b < hi {
			cuts = append(cuts, int(b-lo))
		}
	}
	words := (int(hi-lo) + 63) / 64
	bitmaps := make([]uint64, 2*words+(words+63)/64)
	return &Worklist{
		queued:  bitmaps[:words:words],
		held:    bitmaps[words : 2*words : 2*words],
		nonzero: bitmaps[2*words:],
		lo:      lo,
		cuts:    append(cuts, int(hi-lo)),
	}
}

// Len returns the number of queued vertices.
func (w *Worklist) Len() int { return w.total }

// Push queues v, which must lie in [lo, hi), and reports whether it was not
// queued already.
func (w *Worklist) Push(v graph.VertexID) bool {
	i := int(v - w.lo)
	bit := uint64(1) << (i & 63)
	if w.queued[i>>6]&bit != 0 {
		return false
	}
	w.queued[i>>6] |= bit
	w.nonzero[i>>12] |= 1 << (i >> 6 & 63)
	w.total++
	if uint(i-w.start) < uint(w.end-w.start) {
		w.held[i>>6] |= bit
	}
	return true
}

// Pop removes the next vertex of the sweep: the lowest queued, unheld
// vertex past the cursor in the slice being visited. The worklist must not
// be empty.
func (w *Worklist) Pop() graph.VertexID {
	for w.ready == 0 {
		w.refill()
	}
	bit := w.ready & -w.ready
	w.ready ^= bit
	if w.queued[w.word] ^= bit; w.queued[w.word] == 0 {
		w.nonzero[w.word>>6] &^= 1 << (w.word & 63)
	}
	w.total--
	return w.lo + graph.VertexID(w.word<<6+bits.TrailingZeros64(bit))
}

// refill moves the cursor on to the next nonzero word of the visited
// slice, or ends the visit at the slice's end.
func (w *Worklist) refill() {
	if j := nextSet(w.nonzero, w.word+1); j >= 0 && j<<6 < w.end {
		w.word, w.ready = j, w.unheld(j)
	} else {
		w.advance()
	}
}

// advance ends the visit: it releases the visited slice's held vertices
// and moves the sweep to the slice of the first queued vertex past this
// slice, cyclically, with the cursor on that vertex's word.
func (w *Worklist) advance() {
	// Held vertices are queued, so only nonzero words hold any.
	for j := nextSet(w.nonzero, w.start>>6); j >= 0 && j<<6 < w.end; j = nextSet(w.nonzero, j+1) {
		w.held[j] = 0
	}
	i, j := w.end, w.end>>6
	if j >= len(w.queued) || w.queued[j]>>(i&63) == 0 {
		if j = nextSet(w.nonzero, j+1); j < 0 {
			j = nextSet(w.nonzero, 0)
		}
		i = j << 6
	}
	i += bits.TrailingZeros64(w.queued[j] >> (i & 63))
	s := sort.SearchInts(w.cuts, i+1) - 1
	w.start, w.end, w.word = w.cuts[s], w.cuts[s+1], j
	w.ready = w.unheld(j) >> (i & 63) << (i & 63) // none below i is queued in the slice
}

// unheld returns word wi's queued, unheld bits below the visited slice's
// end; the bits below its start are the caller's to mask.
func (w *Worklist) unheld(wi int) uint64 {
	word := w.queued[wi] &^ w.held[wi]
	if top := wi<<6 + 64; top > w.end {
		word &= ^uint64(0) >> (top - w.end)
	}
	return word
}

// nextSet returns the lowest set bit of b at or past i, or -1.
func nextSet(b []uint64, i int) int {
	for j := i >> 6; j < len(b); j++ {
		word := b[j]
		if j == i>>6 {
			word &= ^uint64(0) << (i & 63)
		}
		if word != 0 {
			return j<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}
