package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestPagedSpliceMatchesRebuild chains random row edits through Splice on
// weighted and unweighted multigraphs spanning several pages (the last one
// partial, or exactly full) and holds every version against a FromEdges
// rebuild of the edited rows: the same rows, edge count and weight mode.
// A splice shares every page it does not edit with its parent, and leaves
// the parent version unchanged.
func TestPagedSpliceMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/weighted=%v", seed, weighted), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				n := []int{1, PageVertices, 3*PageVertices + 1 + rng.Intn(PageVertices)}[seed%3]
				base, err := FromEdges(n, randomEdges(rng, n, 4*n), weighted)
				if err != nil {
					t.Fatal(err)
				}
				rows := make([][]Edge, n) // the reference: every row as an edge list
				for _, e := range base.Edges() {
					rows[e.Src] = append(rows[e.Src], e)
				}
				cur := base.Paged()
				for step := 0; step < 12; step++ {
					prev, prevCSR := cur, cur.CSR()
					edits := randomEdits(rng, cur, rows, weighted)
					cur = cur.Splice(edits)
					var all []Edge
					for _, row := range rows {
						all = append(all, row...)
					}
					want, err := FromEdges(n, all, weighted)
					if err != nil {
						t.Fatal(err)
					}
					if got := cur.CSR(); !got.Equal(want) || cur.NumEdges() != want.NumEdges() || cur.Weighted() != weighted {
						t.Fatalf("step %d: spliced\n%v\nwant\n%v", step, got.Edges(), want.Edges())
					}
					if !prev.CSR().Equal(prevCSR) {
						t.Fatalf("step %d: the splice changed its parent version", step)
					}
					edited := map[VertexID]bool{}
					for _, ed := range edits {
						edited[ed.Src>>pageShift] = true
					}
					for p := range cur.pages {
						if shared := &cur.pages[p].rowPtr[0] == &prev.pages[p].rowPtr[0]; shared == edited[VertexID(p)] {
							t.Fatalf("step %d: page %d shared=%v, edited=%v", step, p, shared, edited[VertexID(p)])
						}
					}
				}
			})
		}
	}
}

// randomEdits draws edits on a few random sources of g and applies them to
// rows, the reference. Unweighted edges carry weight 1, as CSR.Edges does.
func randomEdits(rng *rand.Rand, g *Paged, rows [][]Edge, weighted bool) []RowEdit {
	n := g.NumVertices()
	srcs := make([]VertexID, 1+rng.Intn(6))
	for i := range srcs {
		srcs[i] = VertexID(rng.Intn(n))
	}
	slices.Sort(srcs)
	var edits []RowEdit
	for _, s := range slices.Compact(srcs) {
		ed := RowEdit{Src: s}
		var kept []Edge
		for i, e := range rows[s] {
			if rng.Intn(3) == 0 {
				ed.Drop = append(ed.Drop, i)
			} else {
				kept = append(kept, e)
			}
		}
		for range rng.Intn(4) {
			e := Edge{Src: s, Dst: VertexID(rng.Intn(n)), Weight: 1}
			if weighted {
				e.Weight = float32(rng.Intn(8)) / 2
			}
			ed.Add = append(ed.Add, e)
			kept = append(kept, e)
		}
		rows[s] = kept
		edits = append(edits, ed)
	}
	return edits
}

// TestCSRPagedAliasesItsArrays: viewing a CSR as pages copies no edge
// data, and every row reads the CSR's own storage.
func TestCSRPagedAliasesItsArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2*PageVertices + 17
	g, err := FromEdges(n, randomEdges(rng, n, 5*n), true)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Paged()
	if !p.CSR().Equal(g) || p.NumEdges() != g.NumEdges() || !p.Weighted() {
		t.Fatal("the paged view differs from its CSR")
	}
	for v := range n {
		dst, wt := p.Row(VertexID(v))
		if lo := g.RowPtr[v]; len(dst) > 0 && (&dst[0] != &g.Dst[lo] || &wt[0] != &g.Weight[lo]) {
			t.Fatalf("row %d is a copy, not the CSR's storage", v)
		}
		if p.OutDegree(VertexID(v)) != g.OutDegree(VertexID(v)) ||
			!slices.Equal(p.Neighbors(VertexID(v)), g.Neighbors(VertexID(v))) ||
			!slices.Equal(p.NeighborWeights(VertexID(v)), g.NeighborWeights(VertexID(v))) {
			t.Fatalf("row %d differs", v)
		}
	}
}
