// Package graph provides the graph substrate shared by every engine in this
// repository: an immutable Compressed Sparse Row (CSR) representation with
// optional edge weights, builders, transposition, relabeling, and
// degree/statistics helpers.
//
// All engines (the GraphPulse accelerator model, the Ligra-style software
// baseline, and the Graphicionado model) consume the same CSR so that
// measured differences come from the processing model, not the storage.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// VertexID identifies a vertex. Graphs in this repository are always
// labeled 0..NumVertices-1.
type VertexID = uint32

// Edge is a single directed edge with an optional weight. Unweighted graphs
// carry weight 1. The JSON form is the serving tier's wire and
// write-ahead-log edge shape.
type Edge struct {
	Src    VertexID `json:"src"`
	Dst    VertexID `json:"dst"`
	Weight float32  `json:"weight,omitempty"`
}

// CSR is an immutable directed graph in Compressed Sparse Row form.
//
// The out-edges of vertex v are Dst[RowPtr[v]:RowPtr[v+1]], with matching
// weights in Weight (nil for unweighted graphs). This mirrors the layout the
// paper assumes ("The graph is stored in a Compressed Sparse Row format in
// memory", Section IV-E): RowPtr and Dst are the structures the simulated
// memory traffic is accounted against.
type CSR struct {
	// RowPtr has NumVertices+1 entries; RowPtr[v] is the index of the first
	// out-edge of v in Dst.
	RowPtr []uint64
	// Dst holds destination vertex ids, grouped by source, sources ascending.
	Dst []VertexID
	// Weight holds per-edge weights parallel to Dst. nil means the graph is
	// unweighted and every edge has implicit weight 1.
	Weight []float32
}

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int {
	if len(g.RowPtr) == 0 {
		return 0
	}
	return len(g.RowPtr) - 1
}

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() int { return len(g.Dst) }

// Weighted reports whether the graph carries explicit edge weights.
func (g *CSR) Weighted() bool { return g.Weight != nil }

// OutDegree returns the out-degree of v.
func (g *CSR) OutDegree(v VertexID) int {
	return int(g.RowPtr[v+1] - g.RowPtr[v])
}

// Neighbors returns the out-neighbors of v as a subslice of the shared Dst
// array. Callers must not modify it.
func (g *CSR) Neighbors(v VertexID) []VertexID {
	return g.Dst[g.RowPtr[v]:g.RowPtr[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v). For
// unweighted graphs it returns nil.
func (g *CSR) NeighborWeights(v VertexID) []float32 {
	if g.Weight == nil {
		return nil
	}
	return g.Weight[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Row returns the out-neighbors of v and the weights parallel to them (nil
// for unweighted graphs) in one call. Callers must not modify either slice.
func (g *CSR) Row(v VertexID) (dst []VertexID, wt []float32) {
	lo, hi := g.RowPtr[v], g.RowPtr[v+1]
	if g.Weight == nil {
		return g.Dst[lo:hi], nil
	}
	return g.Dst[lo:hi], g.Weight[lo:hi]
}

// EdgeWeight returns the weight of the i-th edge (index into Dst). For
// unweighted graphs it returns 1.
func (g *CSR) EdgeWeight(i uint64) float32 {
	if g.Weight == nil {
		return 1
	}
	return g.Weight[i]
}

// Adjacency is the narrow read interface the native solvers, the
// partitioner and the serving tier consume: vertex and edge counts and
// per-vertex neighbor rows. The in-RAM *CSR satisfies it directly; the
// out-of-core slice store (internal/graph/ooc) satisfies it by decoding
// compressed slices on demand. The cycle simulators model DRAM reads of
// RowPtr and Dst, so they take a *CSR instead.
//
// Row, Neighbors and NeighborWeights return slices the caller must not
// modify; for out-of-core stores they remain valid after the backing slice
// is evicted (eviction drops the store's reference, the garbage collector
// reclaims the buffer once callers are done).
type Adjacency interface {
	// NumVertices returns the vertex count.
	NumVertices() int
	// NumEdges returns the directed edge count.
	NumEdges() int
	// Weighted reports whether edges carry explicit weights.
	Weighted() bool
	// OutDegree returns the out-degree of v.
	OutDegree(v VertexID) int
	// Neighbors returns the out-neighbors of v.
	Neighbors(v VertexID) []VertexID
	// NeighborWeights returns the weights parallel to Neighbors(v), nil for
	// unweighted graphs.
	NeighborWeights(v VertexID) []float32
	// Row returns Neighbors(v) and NeighborWeights(v) in one lookup; the
	// out-degree is len(dst). The native solvers read each activated
	// vertex's row through this call alone.
	Row(v VertexID) (dst []VertexID, wt []float32)
}

var _ Adjacency = (*CSR)(nil)

// Sliced is implemented by graph stores whose layout has its own slice
// boundaries (the out-of-core graphpack store): k+1 vertex ids [0 … n], one
// residency unit per gap. The native solvers schedule their worklists by
// these slices and the parallel solver aligns its shards to them.
type Sliced interface {
	SliceBoundaries() []VertexID
}

// SliceBoundaries returns g's slice boundaries when g is Sliced and the
// list is usable — starts at 0, ends at NumVertices, strictly increasing —
// and nil otherwise, in which case callers treat g as a single slice.
func SliceBoundaries(g Adjacency) []VertexID {
	sl, ok := g.(Sliced)
	if !ok {
		return nil
	}
	bounds := sl.SliceBoundaries()
	k := len(bounds) - 1
	if k < 1 || bounds[0] != 0 || int(bounds[k]) != g.NumVertices() {
		return nil
	}
	for i := 0; i < k; i++ {
		if bounds[i] >= bounds[i+1] {
			return nil
		}
	}
	return bounds
}

// Validate checks structural invariants: monotone row pointers, in-range
// destinations, and weight array parity. It returns a descriptive error for
// the first violation found.
func (g *CSR) Validate() error {
	if len(g.RowPtr) == 0 {
		if len(g.Dst) != 0 {
			return errors.New("graph: empty RowPtr with non-empty Dst")
		}
		return nil
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d, want 0", g.RowPtr[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			return fmt.Errorf("graph: RowPtr not monotone at vertex %d", v)
		}
	}
	if g.RowPtr[n] != uint64(len(g.Dst)) {
		return fmt.Errorf("graph: RowPtr[n] = %d, want len(Dst) = %d", g.RowPtr[n], len(g.Dst))
	}
	for i, d := range g.Dst {
		if int(d) >= n {
			return fmt.Errorf("graph: edge %d has out-of-range destination %d (n=%d)", i, d, n)
		}
	}
	if g.Weight != nil && len(g.Weight) != len(g.Dst) {
		return fmt.Errorf("graph: len(Weight) = %d, want %d", len(g.Weight), len(g.Dst))
	}
	return nil
}

// FromEdges builds a CSR from an arbitrary edge list. Edges may arrive in
// any order; duplicates are kept (multigraphs are legal inputs for the
// engines). numVertices must be at least 1 + the largest vertex id used.
// If weighted is false, per-edge weights are dropped.
func FromEdges(numVertices int, edges []Edge, weighted bool) (*CSR, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	g := &CSR{RowPtr: make([]uint64, numVertices+1)}
	for _, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.Src, e.Dst, numVertices)
		}
		g.RowPtr[e.Src+1]++
	}
	for v := 0; v < numVertices; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
	g.Dst = make([]VertexID, len(edges))
	if weighted {
		g.Weight = make([]float32, len(edges))
	}
	cursor := make([]uint64, numVertices)
	copy(cursor, g.RowPtr[:numVertices])
	for _, e := range edges {
		i := cursor[e.Src]
		cursor[e.Src]++
		g.Dst[i] = e.Dst
		if weighted {
			g.Weight[i] = e.Weight
		}
	}
	return g, nil
}

// Edges materializes the edge list of g in CSR order. It is intended for
// tests and tools; engines iterate the CSR directly.
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		src := VertexID(v)
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			out = append(out, Edge{Src: src, Dst: g.Dst[i], Weight: g.EdgeWeight(i)})
		}
	}
	return out
}

// Equal reports whether g and o are structurally identical: same vertex
// count, same RowPtr, same Dst ordering, and bit-identical weights (or both
// unweighted). Round-trip and metamorphic tests use it.
func (g *CSR) Equal(o *CSR) bool {
	if len(g.RowPtr) != len(o.RowPtr) || g.NumEdges() != o.NumEdges() {
		return false
	}
	for i := range g.RowPtr {
		if g.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for i := range g.Dst {
		if g.Dst[i] != o.Dst[i] {
			return false
		}
	}
	if (g.Weight == nil) != (o.Weight == nil) {
		return false
	}
	for i := range g.Weight {
		if g.Weight[i] != o.Weight[i] {
			return false
		}
	}
	return true
}

// Transpose returns the reverse graph (every edge u→v becomes v→u),
// preserving weights. Pull-direction engines need it.
func (g *CSR) Transpose() *CSR {
	n := g.NumVertices()
	t := &CSR{RowPtr: make([]uint64, n+1)}
	for _, d := range g.Dst {
		t.RowPtr[d+1]++
	}
	for v := 0; v < n; v++ {
		t.RowPtr[v+1] += t.RowPtr[v]
	}
	t.Dst = make([]VertexID, len(g.Dst))
	if g.Weight != nil {
		t.Weight = make([]float32, len(g.Weight))
	}
	cursor := make([]uint64, n)
	copy(cursor, t.RowPtr[:n])
	for v := 0; v < n; v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			d := g.Dst[i]
			j := cursor[d]
			cursor[d]++
			t.Dst[j] = VertexID(v)
			if g.Weight != nil {
				t.Weight[j] = g.Weight[i]
			}
		}
	}
	return t
}

// Relabel returns a copy of g with vertex v renamed to perm[v]. perm must be
// a permutation of 0..n-1. The partitioner uses this to make slice vertex
// ranges contiguous ("We relabel the vertices to make them contiguous within
// each slice", Section IV-F).
func (g *CSR) Relabel(perm []VertexID) (*CSR, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation (value %d)", p)
		}
		seen[p] = true
	}
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			edges = append(edges, Edge{Src: perm[v], Dst: perm[g.Dst[i]], Weight: g.EdgeWeight(i)})
		}
	}
	return FromEdges(n, edges, g.Weight != nil)
}

// SortNeighbors returns a copy of g with each adjacency list sorted by
// destination id (weights follow their edges). Sorted adjacency improves
// the realism of sequential edge streaming and makes golden tests stable.
func (g *CSR) SortNeighbors() *CSR {
	n := g.NumVertices()
	out := &CSR{
		RowPtr: append([]uint64(nil), g.RowPtr...),
		Dst:    append([]VertexID(nil), g.Dst...),
	}
	if g.Weight != nil {
		out.Weight = append([]float32(nil), g.Weight...)
	}
	for v := 0; v < n; v++ {
		lo, hi := out.RowPtr[v], out.RowPtr[v+1]
		seg := out.Dst[lo:hi]
		if out.Weight == nil {
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
			continue
		}
		wseg := out.Weight[lo:hi]
		idx := make([]int, len(seg))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return seg[idx[i]] < seg[idx[j]] })
		ns := make([]VertexID, len(seg))
		nw := make([]float32, len(seg))
		for i, k := range idx {
			ns[i], nw[i] = seg[k], wseg[k]
		}
		copy(seg, ns)
		copy(wseg, nw)
	}
	return out
}

// BestRoot returns the max-out-degree vertex, the lowest id among ties
// (vertex 0 on an edgeless graph). It is the root every rooted run takes,
// so source-rooted algorithms get nontrivial traversals on synthetic
// graphs, where many low-numbered vertices have no out-edges.
func BestRoot(g *CSR) VertexID {
	best, deg := VertexID(0), -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > deg {
			best, deg = VertexID(v), d
		}
	}
	return best
}

// Stats summarizes the shape of a graph; Table IV reporting uses it.
type Stats struct {
	Vertices     int
	Edges        int
	MaxOutDegree int
	AvgOutDegree float64
	// DegreeP99 is the 99th-percentile out-degree; skew indicator for
	// power-law graphs.
	DegreeP99 int
	// ZeroOutDegree counts sink vertices.
	ZeroOutDegree int
}

// ComputeStats scans g once and returns its Stats.
func ComputeStats(g *CSR) Stats {
	n := g.NumVertices()
	s := Stats{Vertices: n, Edges: g.NumEdges()}
	if n == 0 {
		return s
	}
	degs := make([]int, n)
	for v := 0; v < n; v++ {
		d := g.OutDegree(VertexID(v))
		degs[v] = d
		if d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if d == 0 {
			s.ZeroOutDegree++
		}
	}
	s.AvgOutDegree = float64(s.Edges) / float64(n)
	sort.Ints(degs)
	p := int(math.Ceil(0.99*float64(n))) - 1
	if p < 0 {
		p = 0
	}
	if p >= n {
		p = n - 1
	}
	s.DegreeP99 = degs[p]
	return s
}

// NormalizeInbound returns a weighted copy of g in which the weights of
// each vertex's incoming edges sum to 1 (vertices with no in-edges are
// unaffected). The paper's Adsorption setup requires this ("normalized the
// inbound weights for each vertex", Section VI-A); it also guarantees the
// fixed-point iteration is a contraction.
func (g *CSR) NormalizeInbound() *CSR {
	n := g.NumVertices()
	sum := make([]float64, n)
	for i, d := range g.Dst {
		sum[d] += float64(g.EdgeWeight(uint64(i)))
	}
	out := &CSR{
		RowPtr: append([]uint64(nil), g.RowPtr...),
		Dst:    append([]VertexID(nil), g.Dst...),
		Weight: make([]float32, len(g.Dst)),
	}
	for i, d := range g.Dst {
		w := float64(g.EdgeWeight(uint64(i)))
		if sum[d] > 0 {
			out.Weight[i] = float32(w / sum[d])
		}
	}
	return out
}
