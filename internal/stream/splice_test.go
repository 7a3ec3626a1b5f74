package stream

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// TestSpliceMatchesLogReference drives random Apply (in-batch insert and
// delete of one pair, exact duplicates) and ApplyExact sequences through
// Graph and the log-based reference on weighted and unweighted
// multigraphs. At every epoch the spliced CSR must equal the reference's
// rebuild, the per-edge accounting and the change must agree (Removed as a
// multiset: the splice reports it in CSR order, the log in ingest order),
// and a replica fed only the Change records must equal the live graph.
func TestSpliceMatchesLogReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/weighted=%v", seed, weighted), func(t *testing.T) {
				diffSequence(t, seed, weighted, 40)
			})
		}
	}
}

func diffSequence(t *testing.T, seed int64, weighted bool, epochs int) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(6)
	randEdge := func() graph.Edge {
		return graph.Edge{
			Src:    graph.VertexID(rng.Intn(n)),
			Dst:    graph.VertexID(rng.Intn(n)),
			Weight: []float32{0.5, 1, 2}[rng.Intn(3)],
		}
	}
	randEdges := func(k int) []graph.Edge {
		out := make([]graph.Edge, rng.Intn(k+1))
		for i := range out {
			out[i] = randEdge()
		}
		return out
	}
	base, err := graph.FromEdges(n, randEdges(3*n), weighted)
	if err != nil {
		t.Fatal(err)
	}
	live, ref, replica := NewGraph(base, 3), newRefGraph(base), NewGraph(base, 0)
	// pick draws live edges, so deletes and exact removals mostly hit.
	pick := func(k int) []graph.Edge {
		edges := live.CSR().Edges()
		out := make([]graph.Edge, 0, k)
		for i := rng.Intn(k + 1); i > 0 && len(edges) > 0; i-- {
			out = append(out, edges[rng.Intn(len(edges))])
		}
		if rng.Intn(4) == 0 {
			out = append(out, randEdge())
		}
		return out
	}
	for ep := 0; ep < epochs; ep++ {
		var got, want Change
		var gotErr, wantErr error
		op := []string{"apply", "apply", "exact"}[rng.Intn(3)]
		switch op {
		case "apply":
			ins := randEdges(4)
			if len(ins) > 0 && rng.Intn(3) == 0 {
				ins = append(ins, ins[0]) // exact in-batch duplicate
			}
			dels := pick(3)
			if len(ins) > 0 && rng.Intn(3) == 0 {
				dels = append(dels, ins[len(ins)-1]) // inserted and deleted in one batch
			}
			var gs, gm, ws, wm int
			got, gs, gm, gotErr = live.Apply(ins, dels)
			want, ws, wm, wantErr = ref.Apply(ins, dels)
			if gs != ws || gm != wm {
				t.Fatalf("epoch %d apply: skipped/missed %d/%d, reference %d/%d", ep, gs, gm, ws, wm)
			}
		case "exact":
			rec := Change{Epoch: live.Epoch() + 1, Added: randEdges(2), Removed: pick(3)}
			got, gotErr = live.ApplyExact(rec)
			want, wantErr = ref.ApplyExact(rec)
		}
		if gotErr != nil || wantErr != nil {
			t.Fatalf("epoch %d %s: err %v, reference err %v", ep, op, gotErr, wantErr)
		}
		if got.Epoch != want.Epoch ||
			!slices.Equal(got.Added, want.Added) || !sameMultiset(got.Removed, want.Removed) {
			t.Fatalf("epoch %d %s: change %+v, reference %+v", ep, op, got, want)
		}
		if !live.CSR().Equal(ref.CSR()) {
			t.Fatalf("epoch %d %s: spliced CSR\n%v\ndiffers from the reference rebuild\n%v", ep, op, live.CSR().Edges(), ref.CSR().Edges())
		}
		if got.Epoch == 0 {
			continue
		}
		if _, err := replica.ApplyExact(got); err != nil {
			t.Fatal(err)
		}
		if !replica.CSR().Equal(live.CSR()) {
			t.Fatalf("epoch %d %s: replica\n%v\ndiverged from the live graph\n%v", ep, op, replica.CSR().Edges(), live.CSR().Edges())
		}
	}
}

// TestPagedEpochsMatchLogReference applies seeded 16-edge batches, each
// inserting and deleting, to WG:tiny (16 pages) through Graph and the
// log-based reference. It reads only rows in between, so every epoch
// after the first is spliced from a paged one. Each epoch's rows, and a
// replica's fed only the Change records, must equal the reference's
// rebuild, and every history base must still equal the reference's graph
// at its epoch.
func TestPagedEpochsMatchLogReference(t *testing.T) {
	const epochs, histMax = 24, 4
	base := wgGraph(t, gen.Tiny)
	ins, dels := insertBatches(base, epochs), deleteBatches(base)
	live, ref, replica := NewGraph(base, histMax), newRefGraph(base), NewGraph(base, 0)
	past := []*graph.CSR{base}
	for ep := range epochs {
		in, del := ins[ep], dels[ep]
		if ep%3 == 0 {
			del = append(slices.Clone(del), in[0]) // inserted and deleted in one batch
		}
		got, gs, gm, err := live.Apply(in, del)
		if err != nil {
			t.Fatal(err)
		}
		want, ws, wm, err := ref.Apply(in, del)
		if err != nil {
			t.Fatal(err)
		}
		if gs != ws || gm != wm || got.Epoch != want.Epoch ||
			!slices.Equal(got.Added, want.Added) || !sameMultiset(got.Removed, want.Removed) {
			t.Fatalf("epoch %d: change %+v (%d/%d), reference %+v (%d/%d)", ep, got, gs, gm, want, ws, wm)
		}
		if _, err := replica.ApplyExact(got); err != nil {
			t.Fatal(err)
		}
		past = append(past, ref.CSR())
		if !sameGraph(live.Adjacency(), ref.CSR()) || !sameGraph(replica.Adjacency(), ref.CSR()) {
			t.Fatalf("epoch %d: the live graph or the replica differs from the reference rebuild", ep)
		}
		for k := uint64(1); k <= histMax && k <= got.Epoch; k++ {
			b, _, _, ok := live.Since(got.Epoch - k)
			if !ok || !sameGraph(b, past[got.Epoch-k]) {
				t.Fatalf("epoch %d: the base %d epochs back differs from the reference's", ep, k)
			}
		}
	}
}

// sameGraph reports whether a and b have the same vertices, weight mode and
// rows, edge for edge.
func sameGraph(a, b graph.Adjacency) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() || a.Weighted() != b.Weighted() {
		return false
	}
	for v := range a.NumVertices() {
		ad, aw := a.Row(graph.VertexID(v))
		bd, bw := b.Row(graph.VertexID(v))
		if !slices.Equal(ad, bd) || !slices.Equal(aw, bw) {
			return false
		}
	}
	return true
}

func sameMultiset(a, b []graph.Edge) bool {
	order := func(x, y graph.Edge) int {
		return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst), cmp.Compare(x.Weight, y.Weight))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, order)
	slices.SortFunc(b, order)
	return slices.Equal(a, b)
}

// wgGraph is the mutate-churn workload's graph shape: the Web-Google
// stand-in (weighted RMAT), at the given tier, built once per process.
func wgGraph(tb testing.TB, tier gen.Tier) *graph.CSR {
	tb.Helper()
	spec, err := gen.DatasetByAbbrev("WG")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := gen.Default.Generate(spec, tier)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

const batchEdges = 16

// insertBatches returns k seeded batches of batchEdges random edges.
func insertBatches(g *graph.CSR, k int) [][]graph.Edge {
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	out := make([][]graph.Edge, k)
	for i := range out {
		for j := 0; j < batchEdges; j++ {
			out[i] = append(out[i], graph.Edge{
				Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: rng.Float32(),
			})
		}
	}
	return out
}

// deleteBatches cuts g's distinct (Src, Dst) pairs, shuffled, into
// batches of batchEdges: every batch deletes live edges until the batches
// run out.
func deleteBatches(g *graph.CSR) [][]graph.Edge {
	seen := map[[2]graph.VertexID]bool{}
	var pairs []graph.Edge
	for _, e := range g.Edges() {
		if k := [2]graph.VertexID{e.Src, e.Dst}; !seen[k] {
			seen[k] = true
			pairs = append(pairs, graph.Edge{Src: e.Src, Dst: e.Dst})
		}
	}
	rand.New(rand.NewSource(2)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	var out [][]graph.Edge
	for len(pairs) >= batchEdges {
		out, pairs = append(out, pairs[:batchEdges]), pairs[batchEdges:]
	}
	return out
}

// TestApplyAllocatesOnlyTouchedPages: a Graph costs only its graph, so
// NewGraph allocates O(1) bytes, not O(edges), and one 16-edge insert or
// delete allocates the pages that hold a touched source, the page table
// and O(batch) — a copy of the whole graph per epoch fails it. Every
// untouched page is shared with the epoch before: its rows read the same
// storage. Eight epochs in a row on WG:tiny allocate less than one CSR in
// total; each batch's sources share one page, since 16 uniform sources
// touch most of a 16-page graph. TotalAlloc is process-wide, so another
// goroutine allocating inside a window inflates one reading; each figure
// is the minimum over several measured calls, each on a fresh Graph.
func TestApplyAllocatesOnlyTouchedPages(t *testing.T) {
	const tries = 5
	allocated := func(f func()) int {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc - before.TotalAlloc)
	}
	tiny := wgGraph(t, gen.Tiny)
	var g *Graph
	got := math.MaxInt
	for range tries {
		got = min(got, allocated(func() { g = NewGraph(tiny, 4) }))
	}
	if got > 1<<10 {
		t.Errorf("NewGraph allocated %d B over %d edges; want O(1)", got, tiny.NumEdges())
	}

	base := wgGraph(t, gen.Mini)
	ins, dels := insertBatches(base, 2), deleteBatches(base)
	const (
		slack      = 64 << 10 // the batch's maps, row edits and Change
		pageHeader = 72       // a page table entry: three slice headers
	)
	pages := (base.NumVertices() + graph.PageVertices - 1) / graph.PageVertices
	for _, c := range []struct {
		name  string
		first bool // the epoch after the registered CSR, which builds one more table to alias it
		ins   [][]graph.Edge
		dels  [][]graph.Edge
	}{
		{"insert", true, ins[:1], [][]graph.Edge{nil}},
		{"delete", true, [][]graph.Edge{nil}, dels[:1]},
		{"insert after insert", false, ins[:2], [][]graph.Edge{nil, nil}},
		{"delete after delete", false, [][]graph.Edge{nil, nil}, dels[:2]},
	} {
		last := len(c.ins) - 1
		var prev graph.Adjacency
		got := math.MaxInt
		for range tries {
			g = NewGraph(base, 4)
			for i := range last {
				mustApply(t, g, c.ins[i], c.dels[i])
			}
			prev = g.Adjacency()
			got = min(got, allocated(func() { mustApply(t, g, c.ins[last], c.dels[last]) }))
		}
		next, touched := g.Adjacency(), touchedPages(c.ins[last], c.dels[last])
		bound := slack + pageHeader*pages + pageBytes(next, touched)
		if c.first {
			bound += pageHeader * pages
		}
		if got > bound {
			t.Errorf("%s allocated %d B; %d touched pages, the page table and slack are %d B on %d edges",
				c.name, got, len(touched), bound, next.NumEdges())
		}
		for p := range pages {
			if v := graph.VertexID(p * graph.PageVertices); !touched[v] && !sameRows(prev, next, v) {
				t.Errorf("%s: untouched page %d does not share its rows with the epoch before", c.name, p)
			}
		}
	}

	const steps = 8
	local := make([][]graph.Edge, steps)
	rng := rand.New(rand.NewSource(3))
	for i := range local {
		page := i * graph.PageVertices
		for range batchEdges {
			local[i] = append(local[i], graph.Edge{
				Src:    graph.VertexID(page + rng.Intn(graph.PageVertices)),
				Dst:    graph.VertexID(rng.Intn(tiny.NumVertices())),
				Weight: rng.Float32(),
			})
		}
	}
	csr := 8*len(tiny.RowPtr) + 4*len(tiny.Dst) + 4*len(tiny.Weight)
	got = math.MaxInt
	for range tries {
		g = NewGraph(tiny, steps)
		got = min(got, allocated(func() {
			for _, batch := range local {
				mustApply(t, g, batch, nil)
			}
		}))
	}
	if got >= csr {
		t.Errorf("%d epochs allocated %d B; one CSR is %d B", steps, got, csr)
	}
}

func mustApply(t *testing.T, g *Graph, ins, dels []graph.Edge) {
	if ch, _, _, err := g.Apply(ins, dels); err != nil || ch.Epoch == 0 {
		t.Fatalf("epoch %d, err %v", ch.Epoch, err)
	}
}

// touchedPages returns the first vertex of every page that holds a source
// in the batches.
func touchedPages(batches ...[]graph.Edge) map[graph.VertexID]bool {
	out := map[graph.VertexID]bool{}
	for _, v := range sources(batches...) {
		out[v/graph.PageVertices*graph.PageVertices] = true
	}
	return out
}

// pageBytes is the size of g's pages that start at the given vertices:
// row pointers, destinations and weights.
func pageBytes(g graph.Adjacency, firsts map[graph.VertexID]bool) int {
	edge := 4
	if g.Weighted() {
		edge = 8
	}
	total := 0
	for first := range firsts {
		last := min(int(first)+graph.PageVertices, g.NumVertices())
		total += 8 * (last - int(first) + 1)
		for v := int(first); v < last; v++ {
			total += edge * g.OutDegree(graph.VertexID(v))
		}
	}
	return total
}

// sameRows reports whether the page starting at first reads the same
// storage in a and b: its rows are equal and the first non-empty one
// starts at the same address.
func sameRows(a, b graph.Adjacency, first graph.VertexID) bool {
	last := min(int(first)+graph.PageVertices, a.NumVertices())
	shared := false
	for v := first; int(v) < last; v++ {
		x, y := a.Neighbors(v), b.Neighbors(v)
		if !slices.Equal(x, y) {
			return false
		}
		if len(x) > 0 && !shared {
			if &x[0] != &y[0] {
				return false
			}
			shared = true
		}
	}
	return shared
}

// BenchmarkGraphApply times one 16-edge insert and one 16-edge delete
// epoch on the WG-shape mini graph (65,536 vertices, ~393k weighted
// edges), spliced and, as <op>/reference, rebuilt from the whole log.
func BenchmarkGraphApply(b *testing.B) {
	base := wgGraph(b, gen.Mini)
	ins, dels := insertBatches(base, 64), deleteBatches(base)
	type applier interface {
		Apply(ins, dels []graph.Edge) (Change, int, int, error)
	}
	for _, impl := range []struct {
		suffix string
		mk     func() applier
	}{
		{"", func() applier { return NewGraph(base, 4) }},
		{"/reference", func() applier { return newRefGraph(base) }},
	} {
		run := func(b *testing.B, batch func(i int) (ins, dels []graph.Edge)) {
			g := impl.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(dels) == 0 { // out of live pairs to delete: start over
					b.StopTimer()
					g = impl.mk()
					b.StartTimer()
				}
				in, del := batch(i)
				if ch, _, missed, err := g.Apply(in, del); err != nil || ch.Epoch == 0 || missed > 0 {
					b.Fatalf("epoch %d, missed %d, err %v", ch.Epoch, missed, err)
				}
			}
		}
		b.Run("insert"+impl.suffix, func(b *testing.B) {
			run(b, func(i int) ([]graph.Edge, []graph.Edge) { return ins[i%len(ins)], nil })
		})
		b.Run("delete"+impl.suffix, func(b *testing.B) {
			run(b, func(i int) ([]graph.Edge, []graph.Edge) { return nil, dels[i%len(dels)] })
		})
	}
}
