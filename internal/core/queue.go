package core

import (
	"fmt"
	"math/bits"

	"graphpulse/internal/graph"
)

// coalescingQueue is the in-place coalescing event queue of Section IV-D.
//
// Storage is direct-mapped: every local vertex id owns exactly one
// (bin, row, column) slot, so no tags are stored and insertion is a
// read-modify-write of one slot. The mapping is column-bin-row order:
//
//	col = v % cols
//	bin = (v / cols) % bins
//	row = v / (cols · bins)
//
// so one row of one bin holds a block of `cols` vertices contiguous in
// memory (giving drained blocks spatial locality for the prefetcher), while
// consecutive blocks spread across bins (spreading graph clusters over the
// queue, as the paper describes).
//
// Insertion coalesces on collision using the algorithm's reduce operator;
// with coalescing disabled (ablation) colliding events chain on a per-slot
// overflow list, reproducing the event-population explosion of Figure 4's
// upper curve.
type coalescingQueue struct {
	bins, cols, rows int
	mapping          MappingPolicy
	reduce           func(a, b float64) float64
	// colShift, binShift and binMask replace binOf's and rowOf's divisions
	// when the mapping is column-bin-row and cols and bins are powers of
	// two (binMask is 0 otherwise).
	colShift, binShift int
	binMask            int

	occupied []bool
	delta    []float64
	look     []uint32
	// rowCount[bin*rows+row] counts occupied slots in a row; it models the
	// occupancy bit-vector + priority encoder used to skip empty rows.
	rowCount []uint16

	coalesceDisabled bool
	// overflow[slot] chains the events colliding with an occupied slot
	// (coalescing disabled only); a drained chain keeps its capacity.
	overflow [][]Event

	population int64 // events resident (including overflow chains)

	// Counters (cumulative; the scheduler snapshots them per round).
	inserted  int64
	coalesced int64
}

func newMappedQueue(capacity, bins, cols int, mapping MappingPolicy, coalesceDisabled bool, reduce func(a, b float64) float64) *coalescingQueue {
	if capacity < 1 || bins < 1 || cols < 1 {
		panic(fmt.Sprintf("core: bad queue geometry capacity=%d bins=%d cols=%d", capacity, bins, cols))
	}
	blocks := bins * cols
	rows := (capacity + blocks - 1) / blocks
	slots := rows * blocks
	q := &coalescingQueue{
		bins: bins, cols: cols, rows: rows,
		mapping:          mapping,
		reduce:           reduce,
		occupied:         make([]bool, slots),
		delta:            make([]float64, slots),
		look:             make([]uint32, slots),
		rowCount:         make([]uint16, bins*rows),
		coalesceDisabled: coalesceDisabled,
	}
	if coalesceDisabled {
		q.overflow = make([][]Event, slots)
	}
	if mapping == MapColBinRow && bits.OnesCount(uint(cols)) == 1 && bits.OnesCount(uint(bins)) == 1 {
		q.colShift = bits.TrailingZeros(uint(cols))
		q.binShift = q.colShift + bits.TrailingZeros(uint(bins))
		q.binMask = bins - 1
	}
	return q
}

// binOf returns the bin a local vertex id maps to.
func (q *coalescingQueue) binOf(v graph.VertexID) int {
	if q.binMask != 0 {
		return int(v) >> q.colShift & q.binMask
	}
	if q.mapping == MapBinRowCol {
		return int(v) / (q.cols * q.rows) % q.bins
	}
	return int(v) / q.cols % q.bins
}

// rowOf returns the row (within its bin) a local vertex id maps to.
func (q *coalescingQueue) rowOf(v graph.VertexID) int {
	if q.binMask != 0 {
		return int(v) >> q.binShift
	}
	if q.mapping == MapBinRowCol {
		return int(v) / q.cols % q.rows
	}
	return int(v) / (q.cols * q.bins)
}

// insert adds ev (local vertex id), coalescing in place on collision.
// It reports whether the event coalesced into an existing one.
func (q *coalescingQueue) insert(ev Event) bool {
	slot := int(ev.Target)
	if slot >= len(q.occupied) {
		panic(fmt.Sprintf("core: event target %d beyond queue capacity %d", ev.Target, len(q.occupied)))
	}
	q.inserted++
	if !q.occupied[slot] {
		q.occupied[slot] = true
		q.delta[slot] = ev.Delta
		q.look[slot] = ev.Lookahead
		q.rowCount[q.binOf(ev.Target)*q.rows+q.rowOf(ev.Target)]++
		q.population++
		return false
	}
	if q.coalesceDisabled {
		q.overflow[slot] = append(q.overflow[slot], ev)
		q.population++
		return false
	}
	q.delta[slot] = q.reduce(q.delta[slot], ev.Delta)
	q.look[slot] = coalesceLookahead(q.look[slot], ev.Lookahead)
	q.coalesced++
	return true
}

// nextOccupiedRow returns the first row ≥ cursor with events in the given
// bin, or -1. The occupancy vector's priority encoder makes this a
// constant-time hardware lookup (Section IV-D), so the model charges no
// cycles for skipped empty rows.
func (q *coalescingQueue) nextOccupiedRow(bin, cursor int) int {
	base := bin * q.rows
	for r := cursor; r < q.rows; r++ {
		if q.rowCount[base+r] > 0 {
			return r
		}
	}
	return -1
}

// drainRow removes all events in one row of one bin (one cycle of removal
// bandwidth: "a full row is read in each cycle") and appends them to out.
func (q *coalescingQueue) drainRow(bin, row int, out []Event) []Event {
	if q.rowCount[bin*q.rows+row] == 0 {
		return out
	}
	blockStart := row*q.cols*q.bins + bin*q.cols
	if q.mapping == MapBinRowCol {
		blockStart = bin*q.rows*q.cols + row*q.cols
	}
	for c := 0; c < q.cols; c++ {
		slot := blockStart + c
		if !q.occupied[slot] {
			continue
		}
		v := graph.VertexID(slot)
		out = append(out, Event{Target: v, Delta: q.delta[slot], Lookahead: q.look[slot]})
		q.occupied[slot] = false
		q.population--
		if q.coalesceDisabled {
			if ov := q.overflow[slot]; len(ov) > 0 {
				out = append(out, ov...)
				q.population -= int64(len(ov))
				q.overflow[slot] = ov[:0]
			}
		}
	}
	q.rowCount[bin*q.rows+row] = 0
	return out
}

// binPopulation returns the number of events resident in one bin.
func (q *coalescingQueue) binPopulation(bin int) int {
	total := 0
	base := bin * q.rows
	for r := 0; r < q.rows; r++ {
		total += int(q.rowCount[base+r])
	}
	return total
}

// drainAll empties the queue in bin/row order; used when swapping a slice
// out to memory (Section IV-F: "the bins are drained to the buffer").
func (q *coalescingQueue) drainAll() []Event {
	var out []Event
	for b := 0; b < q.bins; b++ {
		for r := q.nextOccupiedRow(b, 0); r != -1; r = q.nextOccupiedRow(b, r) {
			out = q.drainRow(b, r, out)
		}
	}
	return out
}
