package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphpulse/internal/graph"
)

func sum(a, b float64) float64 { return a + b }

func TestQueueGeometry(t *testing.T) {
	q := newMappedQueue(1000, 8, 4, MapColBinRow, false, sum)
	if len(q.occupied) < 1000 {
		t.Errorf("capacity = %d, want >= 1000", len(q.occupied))
	}
	// Column-bin-row order: vertices 0..3 share bin 0 row 0; 4..7 bin 1.
	if q.binOf(0) != 0 || q.binOf(3) != 0 {
		t.Errorf("binOf(0)=%d binOf(3)=%d, want 0", q.binOf(0), q.binOf(3))
	}
	if q.binOf(4) != 1 {
		t.Errorf("binOf(4) = %d, want 1", q.binOf(4))
	}
	// After one full sweep of bins (8 bins × 4 cols = 32 vertices), row 1.
	if q.rowOf(31) != 0 || q.rowOf(32) != 1 {
		t.Errorf("rowOf(31)=%d rowOf(32)=%d, want 0/1", q.rowOf(31), q.rowOf(32))
	}
}

func TestQueueInsertAndDrain(t *testing.T) {
	q := newMappedQueue(64, 4, 4, MapColBinRow, false, sum)
	q.insert(Event{Target: 5, Delta: 1.5})
	q.insert(Event{Target: 6, Delta: 2.5})
	if q.population != 2 {
		t.Fatalf("population = %d, want 2", q.population)
	}
	bin := q.binOf(5)
	row := q.rowOf(5)
	evs := q.drainRow(bin, row, nil)
	// 5 and 6 share the block (cols=4: block 4..7 in bin 1).
	if len(evs) != 2 {
		t.Fatalf("drained %d events, want 2", len(evs))
	}
	if q.population != 0 {
		t.Errorf("population after drain = %d", q.population)
	}
}

func TestQueueCoalescing(t *testing.T) {
	q := newMappedQueue(64, 4, 4, MapColBinRow, false, sum)
	if q.insert(Event{Target: 9, Delta: 1}) {
		t.Error("first insert reported coalesced")
	}
	if !q.insert(Event{Target: 9, Delta: 2}) {
		t.Error("second insert did not coalesce")
	}
	if q.population != 1 {
		t.Errorf("population = %d, want 1", q.population)
	}
	evs := q.drainRow(q.binOf(9), q.rowOf(9), nil)
	if len(evs) != 1 || evs[0].Delta != 3 {
		t.Errorf("drained %+v, want single delta 3", evs)
	}
	if q.coalesced != 1 {
		t.Errorf("coalesced counter = %d, want 1", q.coalesced)
	}
}

func TestQueueCoalescingMin(t *testing.T) {
	q := newMappedQueue(16, 2, 2, MapColBinRow, false, math.Min)
	q.insert(Event{Target: 3, Delta: 7})
	q.insert(Event{Target: 3, Delta: 4})
	q.insert(Event{Target: 3, Delta: 9})
	evs := q.drainRow(q.binOf(3), q.rowOf(3), nil)
	if len(evs) != 1 || evs[0].Delta != 4 {
		t.Errorf("drained %+v, want min 4", evs)
	}
}

func TestQueueLookaheadCompounds(t *testing.T) {
	q := newMappedQueue(16, 2, 2, MapColBinRow, false, sum)
	q.insert(Event{Target: 1, Delta: 1, Lookahead: 5})
	q.insert(Event{Target: 1, Delta: 1, Lookahead: 2})
	evs := q.drainRow(q.binOf(1), q.rowOf(1), nil)
	if evs[0].Lookahead != 6 { // max(5,2)+1
		t.Errorf("lookahead = %d, want 6", evs[0].Lookahead)
	}
}

func TestQueueCoalesceDisabledOverflow(t *testing.T) {
	q := newMappedQueue(16, 2, 2, MapColBinRow, true, sum)
	q.insert(Event{Target: 1, Delta: 1})
	q.insert(Event{Target: 1, Delta: 2})
	q.insert(Event{Target: 1, Delta: 3})
	if q.population != 3 {
		t.Fatalf("population = %d, want 3 without coalescing", q.population)
	}
	evs := q.drainRow(q.binOf(1), q.rowOf(1), nil)
	if len(evs) != 3 {
		t.Fatalf("drained %d events, want 3", len(evs))
	}
	total := 0.0
	for _, e := range evs {
		total += e.Delta
	}
	if total != 6 {
		t.Errorf("sum of drained deltas = %g, want 6", total)
	}
}

func TestQueueNextOccupiedRow(t *testing.T) {
	q := newMappedQueue(1024, 4, 4, MapColBinRow, false, sum)
	// Vertex 16*4+0... choose a vertex in bin 0, a later row.
	var v graph.VertexID
	for cand := graph.VertexID(0); int(cand) < len(q.occupied); cand++ {
		if q.binOf(cand) == 0 && q.rowOf(cand) == 3 {
			v = cand
			break
		}
	}
	q.insert(Event{Target: v, Delta: 1})
	if r := q.nextOccupiedRow(0, 0); r != 3 {
		t.Errorf("nextOccupiedRow = %d, want 3", r)
	}
	if r := q.nextOccupiedRow(0, 4); r != -1 {
		t.Errorf("nextOccupiedRow past = %d, want -1", r)
	}
	if r := q.nextOccupiedRow(1, 0); r != -1 {
		t.Errorf("nextOccupiedRow other bin = %d, want -1", r)
	}
}

func TestQueueDrainAll(t *testing.T) {
	q := newMappedQueue(256, 8, 4, MapColBinRow, false, sum)
	rng := rand.New(rand.NewSource(1))
	want := map[graph.VertexID]float64{}
	for i := 0; i < 100; i++ {
		v := graph.VertexID(rng.Intn(256))
		d := rng.Float64()
		want[v] += d
		q.insert(Event{Target: v, Delta: d})
	}
	evs := q.drainAll()
	if q.population != 0 {
		t.Fatalf("population after drainAll = %d", q.population)
	}
	if len(evs) != len(want) {
		t.Fatalf("drained %d events, want %d", len(evs), len(want))
	}
	for _, e := range evs {
		if math.Abs(e.Delta-want[e.Target]) > 1e-12 {
			t.Errorf("vertex %d delta = %g, want %g", e.Target, e.Delta, want[e.Target])
		}
	}
}

// TestPropertyQueueConservation: for a sum reduce, the total delta drained
// always equals the total delta inserted, regardless of the
// insert/coalesce/drain interleaving.
func TestPropertyQueueConservation(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newMappedQueue(128, 4, 4, MapColBinRow, false, sum)
		var inserted, drained float64
		for op := 0; op < int(nOps); op++ {
			if rng.Intn(3) < 2 {
				d := rng.Float64()
				inserted += d
				q.insert(Event{Target: graph.VertexID(rng.Intn(128)), Delta: d})
			} else {
				bin := rng.Intn(4)
				if r := q.nextOccupiedRow(bin, 0); r != -1 {
					for _, e := range q.drainRow(bin, r, nil) {
						drained += e.Delta
					}
				}
			}
		}
		for _, e := range q.drainAll() {
			drained += e.Delta
		}
		return math.Abs(inserted-drained) < 1e-9 && q.population == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyQueueMappingBijective: every vertex id maps to a distinct
// (bin,row,col) and drains exactly once.
func TestPropertyQueueMappingBijective(t *testing.T) {
	f := func(binsRaw, colsRaw uint8, capRaw uint16) bool {
		bins := int(binsRaw)%16 + 1
		cols := int(colsRaw)%8 + 1
		capacity := int(capRaw)%500 + 1
		q := newMappedQueue(capacity, bins, cols, MapColBinRow, false, sum)
		for v := 0; v < capacity; v++ {
			q.insert(Event{Target: graph.VertexID(v), Delta: 1})
		}
		if q.population != int64(capacity) {
			return false
		}
		seen := make(map[graph.VertexID]bool)
		for _, e := range q.drainAll() {
			if seen[e.Target] {
				return false
			}
			seen[e.Target] = true
		}
		return len(seen) == capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCrossbarDeliver(t *testing.T) {
	q := newMappedQueue(64, 4, 4, MapColBinRow, false, sum)
	x := newCrossbar(2, 16)
	// Three events to three different bins; ports=2 limits delivery.
	x.offer(Event{Target: 0, Delta: 1}) // bin 0
	x.offer(Event{Target: 4, Delta: 1}) // bin 1
	x.offer(Event{Target: 8, Delta: 1}) // bin 2
	x.deliver(q, -1)
	if q.population != 2 {
		t.Errorf("population after first deliver = %d, want 2 (port limit)", q.population)
	}
	x.deliver(q, -1)
	if q.population != 3 || !x.empty() {
		t.Errorf("population = %d, empty = %v", q.population, x.empty())
	}
}

func TestCrossbarPerBinLimit(t *testing.T) {
	q := newMappedQueue(64, 4, 4, MapColBinRow, false, sum)
	x := newCrossbar(4, 16)
	// Two events to the same bin: only one lands per cycle.
	x.offer(Event{Target: 0, Delta: 1})
	x.offer(Event{Target: 1, Delta: 1})
	x.deliver(q, -1)
	if q.population != 1 {
		t.Errorf("population = %d, want 1 (one insert per bin per cycle)", q.population)
	}
}

func TestCrossbarDrainingBinStalls(t *testing.T) {
	q := newMappedQueue(64, 4, 4, MapColBinRow, false, sum)
	x := newCrossbar(4, 16)
	x.offer(Event{Target: 0, Delta: 1}) // bin 0
	x.deliver(q, 0)                     // bin 0 draining → stalled
	if q.population != 0 {
		t.Error("event delivered to draining bin")
	}
	x.deliver(q, -1)
	if q.population != 1 {
		t.Error("event lost after stall")
	}
}

func TestCrossbarBackpressure(t *testing.T) {
	x := newCrossbar(1, 2)
	if !x.offer(Event{Target: 0}) || !x.offer(Event{Target: 1}) {
		t.Fatal("offers refused below depth")
	}
	if x.offer(Event{Target: 2}) {
		t.Error("offer accepted beyond depth")
	}
}

func TestSpillBuffers(t *testing.T) {
	s := newSpillBuffers(3)
	s.add(1, Event{Target: 10})
	s.add(1, Event{Target: 11})
	s.add(2, Event{Target: 20})
	if s.total != 3 || len(s.perSlice[1]) != 2 {
		t.Fatalf("total=%d perSlice[1]=%d", s.total, len(s.perSlice[1]))
	}
	if got := s.nextNonEmpty(0); got != 1 {
		t.Errorf("nextNonEmpty(0) = %d, want 1", got)
	}
	if got := s.nextNonEmpty(1); got != 2 {
		t.Errorf("nextNonEmpty(1) = %d, want 2", got)
	}
	evs := s.take(1)
	if len(evs) != 2 || s.total != 1 {
		t.Errorf("take: %d events, total %d", len(evs), s.total)
	}
	if got := s.nextNonEmpty(2); got != 2 {
		t.Errorf("nextNonEmpty(2) = %d, want 2 (wraps)", got)
	}
	s.take(2)
	if got := s.nextNonEmpty(0); got != -1 {
		t.Errorf("nextNonEmpty on empty = %d, want -1", got)
	}
}

func TestLookaheadBucket(t *testing.T) {
	cases := map[uint32]int{0: 0, 1: 1, 99: 1, 100: 2, 199: 2, 250: 3, 399: 4, 400: 5, 10000: 5}
	for l, want := range cases {
		if got := LookaheadBucket(l); got != want {
			t.Errorf("LookaheadBucket(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestQueueBinRowColMapping(t *testing.T) {
	q := newMappedQueue(64, 4, 4, MapBinRowCol, false, sum)
	// Bin-row-col: vertices 0..15 fill bin 0 (4 rows × 4 cols).
	if q.binOf(0) != 0 || q.binOf(15) != 0 {
		t.Errorf("binOf(0)=%d binOf(15)=%d, want 0", q.binOf(0), q.binOf(15))
	}
	if q.binOf(16) != 1 {
		t.Errorf("binOf(16) = %d, want 1", q.binOf(16))
	}
	if q.rowOf(4) != 1 || q.rowOf(16) != 0 {
		t.Errorf("rowOf(4)=%d rowOf(16)=%d, want 1/0", q.rowOf(4), q.rowOf(16))
	}
	// Drain still recovers exactly what was inserted.
	for v := 0; v < 64; v++ {
		q.insert(Event{Target: graph.VertexID(v), Delta: float64(v)})
	}
	seen := map[graph.VertexID]float64{}
	for _, e := range q.drainAll() {
		seen[e.Target] = e.Delta
	}
	if len(seen) != 64 {
		t.Fatalf("drained %d distinct vertices, want 64", len(seen))
	}
	for v, d := range seen {
		if d != float64(v) {
			t.Errorf("vertex %d delta %g", v, d)
		}
	}
}

func TestQueueMappingsSpreadDifferently(t *testing.T) {
	// A contiguous vertex block should span many bins under col-bin-row and
	// exactly one bin under bin-row-col — the paper's rationale for the
	// former.
	cbr := newMappedQueue(1024, 8, 4, MapColBinRow, false, sum)
	brc := newMappedQueue(1024, 8, 4, MapBinRowCol, false, sum)
	binsCBR := map[int]bool{}
	binsBRC := map[int]bool{}
	for v := graph.VertexID(0); v < 64; v++ {
		binsCBR[cbr.binOf(v)] = true
		binsBRC[brc.binOf(v)] = true
	}
	if len(binsCBR) != 8 {
		t.Errorf("col-bin-row spread 64 vertices over %d bins, want 8", len(binsCBR))
	}
	if len(binsBRC) != 1 {
		t.Errorf("bin-row-col spread 64 vertices over %d bins, want 1", len(binsBRC))
	}
}

func BenchmarkQueueInsertCoalesce(b *testing.B) {
	q := newMappedQueue(1024, 64, 8, MapColBinRow, false, sum)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.insert(Event{Target: uint32(i) & 1023, Delta: 0.5})
	}
}
