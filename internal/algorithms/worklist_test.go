package algorithms

import (
	"math/rand"
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

// script drives wl with a seeded random push/pop sequence under the inList
// discipline over the vertices [lo, hi), calling onPush/onPop around each
// operation, and drains the worklist at the end.
func script(wl *Worklist, lo, hi graph.VertexID, seed int64, steps int, onPush, onPop func(v graph.VertexID)) {
	rng := rand.New(rand.NewSource(seed))
	inList := make([]bool, hi-lo)
	pop := func() {
		v := wl.Pop()
		inList[v-lo] = false
		onPop(v)
	}
	for i := 0; i < steps; i++ {
		if v := lo + graph.VertexID(rng.Intn(int(hi-lo))); rng.Intn(3) > 0 && !inList[v-lo] {
			inList[v-lo] = true
			onPush(v)
			wl.Push(v)
		} else if wl.Len() > 0 {
			pop()
		}
	}
	for wl.Len() > 0 {
		pop()
	}
}

// With one slice the worklist is a plain FIFO, pop for pop — the schedule
// every in-RAM solve ran before slices existed.
func TestWorklistOneSliceIsFIFO(t *testing.T) {
	const n = 97
	wl := NewWorklist(chainGraph(t, n), 0, n)
	var fifo []graph.VertexID
	script(wl, 0, n, 1, 20000,
		func(v graph.VertexID) { fifo = append(fifo, v) },
		func(v graph.VertexID) {
			if len(fifo) == 0 || fifo[0] != v {
				t.Fatalf("popped %d, FIFO head is %v", v, fifo)
			}
			fifo = fifo[1:]
		})
	if len(fifo) != 0 {
		t.Fatalf("%d entries never popped", len(fifo))
	}
}

// With k slices the sweep takes from a slice what was queued when it
// arrived and moves on: entries pushed into the slice being visited wait
// for the next sweep.
func TestWorklistSweepOrder(t *testing.T) {
	g := slicedCSR{chainGraph(t, 12), []graph.VertexID{0, 4, 8, 12}}
	wl := NewWorklist(g, 0, 12)
	for _, v := range []graph.VertexID{9, 1, 5, 2} {
		wl.Push(v)
	}
	var got []graph.VertexID
	for _, step := range []struct{ push []graph.VertexID }{
		{[]graph.VertexID{3, 10}}, // pop 1; 3 lands in the slice being visited
		{nil},                     // pop 2, slice 0's quota is spent
		{nil},                     // pop 5
		{[]graph.VertexID{6}},     // pop 9; 10 was queued before the sweep arrived
		{nil},                     // pop 10
		{nil},                     // pop 3: second sweep
		{nil},                     // pop 6
	} {
		got = append(got, wl.Pop())
		for _, v := range step.push {
			wl.Push(v)
		}
	}
	want := []graph.VertexID{1, 2, 5, 9, 10, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	if wl.Len() != 0 {
		t.Fatalf("Len = %d after draining", wl.Len())
	}
}

// No starvation: while a vertex waits, the sweep passes every other slice at
// most once, so no other vertex is popped twice before it. Under the inList
// discipline a slice's ring never holds more than the slice's vertices, and
// every push is popped exactly once. Checked on a whole-range worklist and
// on a psolve-style owner range that cuts through the slices.
func TestWorklistNoStarvation(t *testing.T) {
	const n = 200
	g := slicedCSR{chainGraph(t, n), []graph.VertexID{0, 13, 50, 51, 120, 199, 200}}
	for _, r := range []struct{ lo, hi graph.VertexID }{{0, n}, {40, 130}} {
		wl := NewWorklist(g, r.lo, r.hi)
		if want := map[graph.VertexID]int{0: 6, 40: 4}[r.lo]; len(wl.rings) != want {
			t.Fatalf("[%d,%d): %d rings, want %d", r.lo, r.hi, len(wl.rings), want)
		}
		pushes, pops := 0, 0
		// Pop sequence numbers: when each waiting vertex was pushed, and
		// every vertex's last two pops.
		size := int(r.hi - r.lo)
		pushedAt, last, prev := make([]int, size), make([]int, size), make([]int, size)
		script(wl, r.lo, r.hi, 7, 50000,
			func(v graph.VertexID) {
				pushes++
				pushedAt[v-r.lo] = pops
			},
			func(v graph.VertexID) {
				pops++
				prev[v-r.lo], last[v-r.lo] = last[v-r.lo], pops
				since := pushedAt[v-r.lo]
				for u := range last {
					if u != int(v-r.lo) && prev[u] > since {
						t.Fatalf("[%d,%d): vertex %d popped twice (pops %d and %d) while %d waited since pop %d",
							r.lo, r.hi, int(r.lo)+u, prev[u], last[u], v, since)
					}
				}
				for i, r := range wl.rings {
					if r.count > r.size {
						t.Fatalf("slice %d ring holds %d entries, slice has %d vertices", i, r.count, r.size)
					}
				}
			})
		if pushes != pops || pushes == 0 {
			t.Fatalf("[%d,%d): %d pushes, %d pops", r.lo, r.hi, pushes, pops)
		}
	}
}

// sweepModel is the worklist's schedule written out plainly: one FIFO per
// slice, the slice found by a linear scan of its starts, and a cyclic
// sweep that takes from a slice what it held when the sweep arrived.
type sweepModel struct {
	starts     []graph.VertexID // ascending slice starts
	queues     [][]graph.VertexID
	cur, quota int
}

func newSweepModel(starts []graph.VertexID) *sweepModel {
	return &sweepModel{starts: starts, queues: make([][]graph.VertexID, len(starts)), cur: len(starts) - 1}
}

func (m *sweepModel) push(v graph.VertexID) {
	i := len(m.starts) - 1
	for m.starts[i] > v {
		i--
	}
	m.queues[i] = append(m.queues[i], v)
}

// pop returns the next vertex and the slice whose visit popped it.
func (m *sweepModel) pop() (graph.VertexID, int) {
	for m.quota == 0 {
		m.cur = (m.cur + 1) % len(m.queues)
		m.quota = len(m.queues[m.cur])
	}
	v := m.queues[m.cur][0]
	m.queues[m.cur] = m.queues[m.cur][1:]
	m.quota--
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
	if len(wl.rings) != len(starts) || len(wl.ringAt) != hi-lo {
		t.Fatalf("%d rings and a %d-entry ring index, want %d and %d", len(wl.rings), len(wl.ringAt), len(starts), hi-lo)
	}
	m := newSweepModel(starts)
	pops := 0
	script(wl, lo, hi, 3, 40000, m.push, func(v graph.VertexID) {
		want, slice := m.pop()
		if v != want {
			t.Fatalf("pop %d: got %d, model pops %d", pops, v, want)
		}
		if wl.cur != slice {
			t.Fatalf("pop %d: vertex %d popped while visiting ring %d, its slice is %d", pops, v, wl.cur, slice)
		}
		pops++
	})
	if pops == 0 {
		t.Fatal("nothing popped")
	}
	if one := NewWorklist(chainGraph(t, n), lo, hi); one.ringAt != nil {
		t.Fatalf("one-ring worklist built a %d-entry ring index", len(one.ringAt))
	}
}

// Unusable boundary lists fall back to one ring.
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
		if len(wl.rings) != 1 {
			t.Errorf("%s: %d rings, want 1", name, len(wl.rings))
		}
		for _, v := range []graph.VertexID{25, 3, 12} {
			wl.Push(v)
		}
		for _, want := range []graph.VertexID{25, 3, 12} {
			if got := wl.Pop(); got != want {
				t.Errorf("%s: popped %d, want %d (FIFO)", name, got, want)
			}
		}
	}
}

// An in-RAM graph has one ring, so its schedule is the FIFO's: activation
// and propagated-edge counts on a fixed seeded graph equal the values
// recorded before the worklist was slice-ordered.
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
		{NewPageRankDelta(), 17436, 191427},
		{NewSSSP(0), 1716, 13368},
		{NewBFS(0), 1069, 8026},
		{NewConnectedComponents(), 2526, 19032},
	} {
		res := Solve(g, c.alg)
		if res.Activations != c.activations || res.Emitted != c.emitted {
			t.Errorf("%s: (activations, emitted) = (%d, %d), want (%d, %d)",
				c.alg.Name(), res.Activations, res.Emitted, c.activations, c.emitted)
		}
	}
}
