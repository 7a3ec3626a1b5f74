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
// stand-in (weighted RMAT), at the given tier.
func wgGraph(tb testing.TB, tier gen.Tier) *graph.CSR {
	tb.Helper()
	spec, err := gen.DatasetByAbbrev("WG")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := spec.Generate(tier)
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

// TestApplyAllocatesOnlyTheNextCSR: a Graph costs only its CSR, so
// NewGraph allocates O(1) bytes, not O(edges), and one 16-edge insert or
// delete allocates the next CSR plus O(batch): a copy of the whole edge
// list (12 B/edge) or any per-edge side array per epoch fails it.
// TotalAlloc is process-wide, so another goroutine allocating inside a
// window inflates one reading; each figure is the minimum over several
// measured calls, each on a fresh Graph.
func TestApplyAllocatesOnlyTheNextCSR(t *testing.T) {
	const tries = 5
	base := wgGraph(t, gen.Tiny)
	ins, dels := insertBatches(base, 1), deleteBatches(base)
	allocated := func(f func()) int {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc - before.TotalAlloc)
	}
	var g *Graph
	got := math.MaxInt
	for range tries {
		got = min(got, allocated(func() { g = NewGraph(base, 4) }))
	}
	if got > 1<<10 {
		t.Errorf("NewGraph allocated %d B over %d edges; want O(1)", got, base.NumEdges())
	}
	const slack = 64 << 10 // the batch's maps, sort scratch and Change
	for _, c := range []struct {
		name      string
		ins, dels []graph.Edge
	}{{"insert", ins[0], nil}, {"delete", nil, dels[0]}} {
		got := math.MaxInt
		for range tries {
			g = NewGraph(base, 4)
			var ch Change
			var err error
			got = min(got, allocated(func() { ch, _, _, err = g.Apply(c.ins, c.dels) }))
			if err != nil || ch.Epoch == 0 {
				t.Fatalf("%s: epoch %d, err %v", c.name, ch.Epoch, err)
			}
		}
		next := g.CSR()
		csr := 8*len(next.RowPtr) + 4*len(next.Dst) + 4*len(next.Weight)
		if got > csr+slack {
			t.Errorf("%s allocated %d B; the next CSR is %d B (+%d slack) on %d edges", c.name, got, csr, slack, next.NumEdges())
		}
	}
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
