package algorithms

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// slicedCSR is an in-RAM graph that claims the given slice boundaries.
type slicedCSR struct {
	*graph.CSR
	bounds []graph.VertexID
}

func (s slicedCSR) SliceBoundaries() []graph.VertexID { return s.bounds }

func chainGraph(t *testing.T, n int) *graph.CSR {
	t.Helper()
	g, err := gen.Chain(n, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// script drives wl with a seeded random push/pop sequence over the vertices
// [lo, hi), calling onPush/onPop around each operation, and drains the
// worklist at the end. It pushes queued vertices too, and fails t unless
// Push reports false for exactly those; onPush sees only the pushes that
// queued a vertex.
func script(t *testing.T, wl *Worklist, lo, hi graph.VertexID, seed int64, steps int, onPush, onPop func(v graph.VertexID)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inList := make([]bool, hi-lo)
	pop := func() {
		v := wl.Pop()
		if v < lo || v >= hi || !inList[v-lo] {
			t.Fatalf("popped %d, which is not queued", v)
		}
		inList[v-lo] = false
		onPop(v)
	}
	for i := 0; i < steps; i++ {
		if v := lo + graph.VertexID(rng.Intn(int(hi-lo))); rng.Intn(3) > 0 {
			if wl.Push(v) == inList[v-lo] {
				t.Fatalf("Push(%d) = %v, want %v: it was queued: %v", v, inList[v-lo], !inList[v-lo], inList[v-lo])
			}
			if !inList[v-lo] {
				inList[v-lo] = true
				onPush(v)
			}
		} else if wl.Len() > 0 {
			pop()
		}
	}
	for wl.Len() > 0 {
		pop()
	}
}

// With one slice the worklist drains in rounds: each round pops, lowest id
// first, exactly the vertices queued when it began, and a vertex pushed
// during a round waits for the next, pop for pop against the model.
func TestWorklistOneSliceRounds(t *testing.T) {
	const n = 97
	wl := NewWorklist(chainGraph(t, n), 0, n)
	for _, v := range []graph.VertexID{40, 7, 96, 0} {
		wl.Push(v)
	}
	var got []graph.VertexID
	for _, push := range [][]graph.VertexID{
		{50, 3}, // pop 0; 50 lies ahead of the cursor, 3 behind: both wait
		{7},     // pop 7, then push it again: it waits too
		nil,     // pop 40
		nil,     // pop 96: the round ends
		nil,     // pop 3: the second round, ascending
		nil,     // pop 7
		nil,     // pop 50
	} {
		got = append(got, wl.Pop())
		for _, v := range push {
			wl.Push(v)
		}
	}
	want := []graph.VertexID{0, 7, 40, 96, 3, 7, 50}
	if fmt.Sprint(got) != fmt.Sprint(want) || wl.Len() != 0 {
		t.Fatalf("pop order %v with %d left, want %v and none", got, wl.Len(), want)
	}

	m := newSweepModel([]graph.VertexID{0}, n)
	pops := 0
	script(t, NewWorklist(chainGraph(t, n), 0, n), 0, n, 1, 20000, m.push, func(v graph.VertexID) {
		if want, _ := m.pop(); v != want {
			t.Fatalf("pop %d: got %d, the round model pops %d", pops, v, want)
		}
		pops++
	})
	if pops == 0 || m.len() != 0 {
		t.Fatalf("%d pops, %d left in the model", pops, m.len())
	}
}

// With k slices the sweep takes from a slice, lowest id first, what was
// queued when it arrived and moves on: entries pushed into the slice being
// visited, ahead of the cursor or behind it, wait for the next sweep.
func TestWorklistSweepOrder(t *testing.T) {
	g := slicedCSR{chainGraph(t, 12), []graph.VertexID{0, 4, 8, 12}}
	wl := NewWorklist(g, 0, 12)
	for _, v := range []graph.VertexID{9, 2, 5, 1} {
		wl.Push(v)
	}
	var got []graph.VertexID
	for _, step := range []struct{ push []graph.VertexID }{
		{[]graph.VertexID{3, 0, 10}}, // pop 1; 3 and 0 land in the slice being visited
		{[]graph.VertexID{3}},        // pop 2; 3 is already queued
		{nil},                        // pop 5
		{[]graph.VertexID{6, 11, 8}}, // pop 9; 10 was queued before the sweep arrived
		{nil},                        // pop 10
		{nil},                        // pop 0: second sweep
		{nil},                        // pop 3
		{nil},                        // pop 6
		{nil},                        // pop 8
		{nil},                        // pop 11
	} {
		got = append(got, wl.Pop())
		for _, v := range step.push {
			wl.Push(v)
		}
	}
	want := []graph.VertexID{1, 2, 5, 9, 10, 0, 3, 6, 8, 11}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
	if wl.Len() != 0 {
		t.Fatalf("Len = %d after draining", wl.Len())
	}
}

// checkBits checks the bit-vectors' invariants: Len counts the queued bits,
// a nonzero bit marks exactly the words with a queued bit, and held bits
// are queued and lie in the slice being visited.
func checkBits(t *testing.T, wl *Worklist) {
	t.Helper()
	queued := 0
	for wi, q := range wl.queued {
		queued += bits.OnesCount64(q)
		if nz := wl.nonzero[wi>>6]>>(wi&63)&1 != 0; nz != (q != 0) {
			t.Fatalf("word %d: queued %#x, nonzero bit %v", wi, q, nz)
		}
		h := wl.held[wi]
		if h&^q != 0 {
			t.Fatalf("word %d: held %#x not queued %#x", wi, h, q)
		}
		for ; h != 0; h &= h - 1 {
			if i := wi<<6 + bits.TrailingZeros64(h); i < wl.start || i >= wl.end {
				t.Fatalf("offset %d held outside the visited slice [%d, %d)", i, wl.start, wl.end)
			}
		}
	}
	if queued != wl.Len() {
		t.Fatalf("%d queued bits, Len %d", queued, wl.Len())
	}
}

// No starvation: a vertex is popped by the end of the first visit of its
// slice that begins after its push. So while it waits, the sweep passes
// every other slice at most once, and no other vertex is popped twice
// before it, except one of its own slice below it: popped in the visit the
// push came during, then again ahead of it in the next visit. None is
// popped three times. The bit-vectors keep their invariants after every
// pop, and every push is popped exactly once. Checked on a whole-range
// worklist and on a psolve-style owner range that cuts through the slices.
func TestWorklistNoStarvation(t *testing.T) {
	const n = 200
	bounds := []graph.VertexID{0, 13, 50, 51, 120, 199, 200}
	g := slicedCSR{chainGraph(t, n), bounds}
	sliceOf := func(v int) int { return sort.Search(len(bounds), func(i int) bool { return int(bounds[i]) > v }) }
	for _, r := range []struct{ lo, hi graph.VertexID }{{0, n}, {40, 130}} {
		wl := NewWorklist(g, r.lo, r.hi)
		if want := map[graph.VertexID]int{0: 6, 40: 4}[r.lo]; len(wl.cuts)-1 != want {
			t.Fatalf("[%d,%d): %d slices, want %d", r.lo, r.hi, len(wl.cuts)-1, want)
		}
		pushes, pops, twice := 0, 0, 0
		// Pop sequence numbers: when each waiting vertex was pushed, and
		// every vertex's last three pops.
		size := int(r.hi - r.lo)
		pushedAt := make([]int, size)
		last, prev, prev2 := make([]int, size), make([]int, size), make([]int, size)
		script(t, wl, r.lo, r.hi, 7, 50000,
			func(v graph.VertexID) {
				pushes++
				pushedAt[v-r.lo] = pops
			},
			func(v graph.VertexID) {
				pops++
				vi := int(v - r.lo)
				prev2[vi], prev[vi], last[vi] = prev[vi], last[vi], pops
				since := pushedAt[vi]
				for u := range last {
					if u == vi || prev[u] <= since {
						continue
					}
					if prev2[u] > since || u > vi || sliceOf(int(r.lo)+u) != sliceOf(int(v)) {
						t.Fatalf("[%d,%d): vertex %d popped at %d, %d and %d while %d waited since pop %d",
							r.lo, r.hi, int(r.lo)+u, prev2[u], prev[u], last[u], v, since)
					}
					twice++
				}
				checkBits(t, wl)
			})
		if pushes != pops || pushes == 0 || twice == 0 {
			t.Fatalf("[%d,%d): %d pushes, %d pops, %d second pops of a lower vertex", r.lo, r.hi, pushes, pops, twice)
		}
	}
}

// sweepModel is the worklist's schedule written out plainly: one queued set
// per slice, the slice found by a linear scan of its starts, and a cyclic
// sweep that takes from a slice, in ascending order, what it held when the
// sweep arrived; pushes during the visit are held for the next one.
type sweepModel struct {
	starts []graph.VertexID // ascending slice starts
	hi     graph.VertexID
	queued map[graph.VertexID]bool
	visit  []graph.VertexID // the visited slice's vertices still to pop
	cur    int
}

func newSweepModel(starts []graph.VertexID, hi graph.VertexID) *sweepModel {
	return &sweepModel{starts: starts, hi: hi, queued: map[graph.VertexID]bool{}, cur: len(starts) - 1}
}

func (m *sweepModel) push(v graph.VertexID) { m.queued[v] = true }

func (m *sweepModel) len() int { return len(m.queued) }

// pop returns the next vertex and the slice whose visit popped it.
func (m *sweepModel) pop() (graph.VertexID, int) {
	for len(m.visit) == 0 {
		m.cur = (m.cur + 1) % len(m.starts)
		end := m.hi
		if m.cur+1 < len(m.starts) {
			end = m.starts[m.cur+1]
		}
		for v := m.starts[m.cur]; v < end; v++ {
			if m.queued[v] {
				m.visit = append(m.visit, v)
			}
		}
	}
	v := m.visit[0]
	m.visit = m.visit[1:]
	delete(m.queued, v)
	return v, m.cur
}

// An owner range that starts past 0 and is cut by uneven slices (one of a
// single vertex, one clipped at each end) pops every vertex during its own
// slice's visit, in the order of the plain sweep model, pop for pop.
func TestWorklistUnevenSlicesOwnerRange(t *testing.T) {
	const n = 300
	g := slicedCSR{chainGraph(t, n), []graph.VertexID{0, 7, 8, 61, 140, 141, 299, 300}}
	const lo, hi = 5, 290
	starts := []graph.VertexID{lo, 7, 8, 61, 140, 141}
	wl := NewWorklist(g, lo, hi)
	if want := []int{0, 2, 3, 56, 135, 136, hi - lo}; fmt.Sprint(wl.cuts) != fmt.Sprint(want) || len(wl.queued) != (hi-lo+63)/64 {
		t.Fatalf("cuts %v over %d words, want %v over %d", wl.cuts, len(wl.queued), want, (hi-lo+63)/64)
	}
	m := newSweepModel(starts, hi)
	pops := 0
	script(t, wl, lo, hi, 3, 40000, m.push, func(v graph.VertexID) {
		want, slice := m.pop()
		if v != want {
			t.Fatalf("pop %d: got %d, model pops %d", pops, v, want)
		}
		if wl.start != wl.cuts[slice] || wl.end != wl.cuts[slice+1] {
			t.Fatalf("pop %d: vertex %d popped while visiting [%d, %d), its slice is %d", pops, v, wl.start, wl.end, slice)
		}
		pops++
	})
	if pops == 0 {
		t.Fatal("nothing popped")
	}
	if one := NewWorklist(chainGraph(t, n), lo, hi); len(one.cuts) != 2 {
		t.Fatalf("unsliced worklist has cuts %v, want one slice", one.cuts)
	}
}

// Unusable boundary lists fall back to one slice.
func TestWorklistUnusableBoundaries(t *testing.T) {
	const n = 30
	g := chainGraph(t, n)
	for name, bounds := range map[string][]graph.VertexID{
		"not from 0":     {1, 10, 30},
		"not to n":       {0, 10, 29},
		"not increasing": {0, 10, 10, 30},
		"descending":     {0, 20, 10, 30},
		"too short":      {0},
		"empty":          nil,
	} {
		wl := NewWorklist(slicedCSR{g, bounds}, 0, n)
		if len(wl.cuts) != 2 {
			t.Errorf("%s: cuts %v, want one slice", name, wl.cuts)
		}
		for _, v := range []graph.VertexID{25, 3, 12} {
			wl.Push(v)
		}
		for _, want := range []graph.VertexID{3, 12, 25} {
			if got := wl.Pop(); got != want {
				t.Errorf("%s: popped %d, want %d (one ascending round)", name, got, want)
			}
		}
	}
}

// An in-RAM graph is one slice, so its schedule is ascending rounds:
// activation and propagated-edge counts on a fixed seeded graph equal the
// values recorded when the worklist became an occupancy bit-vector.
func TestInRAMScheduleUnchanged(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8, Weighted: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		alg                  Algorithm
		activations, emitted int64
	}{
		{NewPageRankDelta(), 15599, 186252},
		{NewSSSP(0), 1752, 14231},
		{NewBFS(0), 1154, 8026},
		{NewConnectedComponents(), 2449, 18211},
	} {
		res := Solve(g, c.alg)
		if res.Activations != c.activations || res.Emitted != c.emitted {
			t.Errorf("%s: (activations, emitted) = (%d, %d), want (%d, %d)",
				c.alg.Name(), res.Activations, res.Emitted, c.activations, c.emitted)
		}
	}
}
