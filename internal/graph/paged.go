package graph

import "slices"

// PageVertices is the number of consecutive vertices whose rows one page of
// a Paged graph holds (the last page may hold fewer).
const PageVertices = 1 << pageShift

const pageShift = 8

// page holds the rows of up to PageVertices consecutive vertices: row i is
// dst[rowPtr[i]:rowPtr[i+1]], with weights parallel in wt (nil when
// unweighted). A page Splice builds owns its arrays and starts at offset 0;
// a page viewing a CSR aliases it (rowPtr is a window of the CSR's RowPtr,
// dst and wt are its whole Dst and Weight).
type page struct {
	rowPtr []uint64
	dst    []VertexID
	wt     []float32
}

// Paged is an immutable graph stored as a table of pages of rows. Splice
// derives the next version by copying the table and rebuilding only the
// pages that hold an edited row; every other page's arrays are shared, so
// a version costs the pages it touches and the table, not the whole graph.
// The table holds the page headers themselves, not pointers to them, so a
// row read chases one pointer fewer. Versions stay valid after later
// splices.
type Paged struct {
	pages    []page
	n, m     int
	weighted bool
}

var _ Adjacency = (*Paged)(nil)

// Paged returns g as a Paged graph whose pages alias g's arrays: it
// allocates the page table, no edge data.
func (g *CSR) Paged() *Paged {
	n := g.NumVertices()
	p := &Paged{pages: make([]page, (n+PageVertices-1)>>pageShift), n: n, m: g.NumEdges(), weighted: g.Weighted()}
	for i := range p.pages {
		lo, hi := i<<pageShift, min((i+1)<<pageShift, n)
		p.pages[i] = page{rowPtr: g.RowPtr[lo : hi+1], dst: g.Dst, wt: g.Weight}
	}
	return p
}

// NumVertices returns the number of vertices.
func (g *Paged) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Paged) NumEdges() int { return g.m }

// Weighted reports whether the graph carries explicit edge weights.
func (g *Paged) Weighted() bool { return g.weighted }

// Row returns the out-neighbors of v and the weights parallel to them (nil
// for unweighted graphs). Callers must not modify either slice.
func (g *Paged) Row(v VertexID) ([]VertexID, []float32) {
	p := &g.pages[v>>pageShift]
	i := v & (PageVertices - 1)
	lo, hi := p.rowPtr[i], p.rowPtr[i+1]
	if p.wt == nil {
		return p.dst[lo:hi], nil
	}
	return p.dst[lo:hi], p.wt[lo:hi]
}

// OutDegree returns the out-degree of v.
func (g *Paged) OutDegree(v VertexID) int {
	dst, _ := g.Row(v)
	return len(dst)
}

// Neighbors returns the out-neighbors of v.
func (g *Paged) Neighbors(v VertexID) []VertexID {
	dst, _ := g.Row(v)
	return dst
}

// NeighborWeights returns the weights parallel to Neighbors(v), nil for
// unweighted graphs.
func (g *Paged) NeighborWeights(v VertexID) []float32 {
	_, wt := g.Row(v)
	return wt
}

// CSR materialises g as a freshly allocated CSR with the same rows.
func (g *Paged) CSR() *CSR {
	out := &CSR{RowPtr: make([]uint64, g.n+1), Dst: make([]VertexID, 0, g.m)}
	if g.weighted {
		out.Weight = make([]float32, 0, g.m)
	}
	for v := range g.n {
		dst, wt := g.Row(VertexID(v))
		out.Dst = append(out.Dst, dst...)
		out.Weight = append(out.Weight, wt...)
		out.RowPtr[v+1] = uint64(len(out.Dst))
	}
	return out
}

// RowEdit rewrites the out-edges of Src: the edges at the row positions in
// Drop (ascending) are removed, and Add, edges from Src, is appended after
// the survivors in order.
type RowEdit struct {
	Src  VertexID
	Drop []int
	Add  []Edge
}

// Splice returns g with the rows in edits (ascending by Src, at most one
// per vertex) rewritten. The new version shares every page that holds no
// edited row with g; Add weights are dropped on an unweighted graph.
func (g *Paged) Splice(edits []RowEdit) *Paged {
	next := &Paged{pages: slices.Clone(g.pages), n: g.n, m: g.m, weighted: g.weighted}
	for len(edits) > 0 {
		p := edits[0].Src >> pageShift
		k := 1
		for k < len(edits) && edits[k].Src>>pageShift == p {
			k++
		}
		next.pages[p] = g.pages[p].splice(p<<pageShift, edits[:k])
		for _, ed := range edits[:k] {
			next.m += len(ed.Add) - len(ed.Drop)
		}
		edits = edits[k:]
	}
	return next
}

// splice returns a copy of p, whose first vertex is first, with the rows in
// edits (ascending, all on p) rewritten.
func (p *page) splice(first VertexID, edits []RowEdit) page {
	rows := len(p.rowPtr) - 1
	size := int(p.rowPtr[rows] - p.rowPtr[0])
	for _, ed := range edits {
		size += len(ed.Add) - len(ed.Drop)
	}
	q := page{rowPtr: make([]uint64, rows+1), dst: make([]VertexID, 0, size)}
	if p.wt != nil {
		q.wt = make([]float32, 0, size)
	}
	for i := range rows {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		if len(edits) == 0 || edits[0].Src != first+VertexID(i) {
			q.dst = append(q.dst, p.dst[lo:hi]...)
			if q.wt != nil {
				q.wt = append(q.wt, p.wt[lo:hi]...)
			}
			q.rowPtr[i+1] = uint64(len(q.dst))
			continue
		}
		ed := edits[0]
		edits = edits[1:]
		drop := ed.Drop
		for j := lo; j < hi; j++ {
			if len(drop) > 0 && drop[0] == int(j-lo) {
				drop = drop[1:]
				continue
			}
			q.dst = append(q.dst, p.dst[j])
			if q.wt != nil {
				q.wt = append(q.wt, p.wt[j])
			}
		}
		for _, e := range ed.Add {
			q.dst = append(q.dst, e.Dst)
			if q.wt != nil {
				q.wt = append(q.wt, e.Weight)
			}
		}
		q.rowPtr[i+1] = uint64(len(q.dst))
	}
	return q
}
