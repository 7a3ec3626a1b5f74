package algorithms

import "graphpulse/internal/graph"

// Worklist is the coalescing solvers' vertex queue: one fixed-capacity ring
// FIFO per graph slice, all over a single backing array covering the owner's
// vertex range [lo, hi). Callers keep the inList discipline — a vertex is
// pushed only while it is not queued — so each vertex occupies at most one
// slot and a slice's ring never needs more slots than the slice has
// vertices. (A `worklist = worklist[1:]` pop would pin the consumed prefix
// of the backing array for the whole solve and force append to grow a fresh
// array once the tail passes cap.)
//
// Pop sweeps the slices cyclically, the paper's Section IV-F schedule:
// events for the resident slice are processed, events for other slices
// wait. From each slice it takes only what was queued when the sweep
// arrived; entries pushed into the current slice during its visit wait for
// the next sweep, so an out-of-core store swaps each slice in once per
// sweep instead of once per activation, and no slice is starved. Slice
// boundaries come from the graph (graph.SliceBoundaries). A graph that is
// not sliced — every in-RAM *graph.CSR — gets one ring, which is a plain
// FIFO.
type Worklist struct {
	buf    []graph.VertexID // backing array of every ring, hi-lo slots
	rings  []ring           // one per slice, ascending
	lo     graph.VertexID   // first vertex of the owner's range
	ringAt []uint32         // ring index of vertex lo+i; nil with one ring
	cur    int              // ring the sweep is visiting
	quota  int              // entries still to take from cur on this visit
	total  int
}

// ring is one slice's FIFO: the slots buf[base : base+size] serve the
// slice's vertices [lo+base, lo+base+size), lo being the worklist's.
type ring struct {
	base, size, head, count int
}

// NewWorklist returns an empty worklist for the vertices [lo, hi) of g.
func NewWorklist(g graph.Adjacency, lo, hi graph.VertexID) *Worklist {
	// The graph's boundaries inside (lo, hi) cut the owner's range; a graph
	// that is not sliced contributes none.
	cuts := []graph.VertexID{lo}
	for _, b := range graph.SliceBoundaries(g) {
		if b > lo && b < hi {
			cuts = append(cuts, b)
		}
	}
	w := &Worklist{buf: make([]graph.VertexID, hi-lo), rings: make([]ring, len(cuts)), lo: lo}
	if len(cuts) > 1 {
		// A container may hold up to 2^20 slices, so the per-vertex index
		// is what keeps Push O(1); a one-ring worklist needs none.
		w.ringAt = make([]uint32, hi-lo)
	}
	for i, c := range cuts {
		end := hi
		if i+1 < len(cuts) {
			end = cuts[i+1]
		}
		w.rings[i] = ring{base: int(c - lo), size: int(end - c)}
		if w.ringAt != nil {
			at := w.ringAt[c-lo : end-lo]
			for j := range at {
				at[j] = uint32(i)
			}
		}
	}
	w.cur = len(w.rings) - 1 // the first Pop advances the sweep to slice 0
	return w
}

// Len returns the number of queued vertices.
func (w *Worklist) Len() int { return w.total }

// ringOf returns the ring of the slice containing v.
func (w *Worklist) ringOf(v graph.VertexID) *ring {
	if w.ringAt == nil {
		return &w.rings[0]
	}
	return &w.rings[w.ringAt[v-w.lo]]
}

// Push queues v, which must lie in [lo, hi) and not already be queued.
func (w *Worklist) Push(v graph.VertexID) {
	r := w.ringOf(v)
	tail := r.head + r.count
	if tail >= r.size {
		tail -= r.size
	}
	w.buf[r.base+tail] = v
	r.count++
	w.total++
}

// Pop removes the next vertex of the sweep. The worklist must not be empty.
func (w *Worklist) Pop() graph.VertexID {
	for w.quota == 0 {
		if w.cur++; w.cur == len(w.rings) {
			w.cur = 0
		}
		w.quota = w.rings[w.cur].count
	}
	r := &w.rings[w.cur]
	v := w.buf[r.base+r.head]
	if r.head++; r.head == r.size {
		r.head = 0
	}
	r.count--
	w.quota--
	w.total--
	return v
}
