// Package partition slices a graph into vertex-contiguous partitions for the
// GraphPulse large-graph execution mode (paper Section IV-F): "we limit the
// maximum number of vertices in each slice while minimizing edges that cross
// slice boundaries. We relabel the vertices to make them contiguous within
// each slice."
//
// The partitioner here is an offline edge-cut heuristic: a degree-balanced
// contiguous split followed by a boundary-refinement pass that shifts slice
// boundaries to locally reduce the number of cut edges. Real deployments
// would use METIS/PuLP (the paper cites both); the accelerator model only
// depends on the slice *contract* (bounded vertices per slice, contiguous
// ranges), which this package guarantees.
package partition

import (
	"fmt"

	"graphpulse/internal/graph"
)

// Slice is one partition: the contiguous vertex range [Lo, Hi).
type Slice struct {
	Lo, Hi graph.VertexID
}

// NumVertices returns the number of vertices in the slice.
func (s Slice) NumVertices() int { return int(s.Hi - s.Lo) }

// Partitioning is the result of slicing a graph.
type Partitioning struct {
	Slices []Slice
	// CutEdges counts edges whose endpoints land in different slices; each
	// becomes an inter-slice event spilled to off-chip memory at runtime.
	CutEdges int
}

// NumSlices returns the slice count.
func (p *Partitioning) NumSlices() int { return len(p.Slices) }

// SliceOf returns the index of the slice containing v. Slices are contiguous
// and sorted, so this is a binary search.
func (p *Partitioning) SliceOf(v graph.VertexID) int {
	lo, hi := 0, len(p.Slices)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case v < p.Slices[mid].Lo:
			hi = mid
		case v >= p.Slices[mid].Hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Contiguous partitions g into the minimum number of contiguous slices such
// that no slice holds more than maxVertices vertices, then runs `refine`
// boundary-refinement sweeps to reduce the edge cut. maxVertices must be
// positive. With maxVertices >= NumVertices the result is a single slice
// with zero cut.
func Contiguous(g graph.Adjacency, maxVertices, refine int) (*Partitioning, error) {
	if maxVertices <= 0 {
		return nil, fmt.Errorf("partition: maxVertices=%d, want > 0", maxVertices)
	}
	n := g.NumVertices()
	if n == 0 {
		return &Partitioning{}, nil
	}
	numSlices := (n + maxVertices - 1) / maxVertices
	// Initial equal-width split.
	bounds := make([]int, numSlices+1)
	for i := 0; i <= numSlices; i++ {
		bounds[i] = i * n / numSlices
	}
	// Boundary refinement: try shifting each interior boundary by small
	// steps and keep the move if it reduces the cut without violating the
	// vertex bound.
	if numSlices > 1 && refine > 0 {
		steps := []int{-64, -16, -4, -1, 1, 4, 16, 64}
		for pass := 0; pass < refine; pass++ {
			improved := false
			for b := 1; b < numSlices; b++ {
				best := bounds[b]
				bestCut := boundaryCut(g, bounds, b)
				for _, s := range steps {
					cand := bounds[b] + s
					if cand <= bounds[b-1] || cand >= bounds[b+1] {
						continue
					}
					if cand-bounds[b-1] > maxVertices || bounds[b+1]-cand > maxVertices {
						continue
					}
					old := bounds[b]
					bounds[b] = cand
					c := boundaryCut(g, bounds, b)
					if c < bestCut {
						best, bestCut = cand, c
					}
					bounds[b] = old
				}
				if best != bounds[b] {
					bounds[b] = best
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}
	p := &Partitioning{Slices: make([]Slice, numSlices)}
	for i := 0; i < numSlices; i++ {
		p.Slices[i] = Slice{Lo: graph.VertexID(bounds[i]), Hi: graph.VertexID(bounds[i+1])}
		if p.Slices[i].NumVertices() > maxVertices {
			return nil, fmt.Errorf("partition: slice %d has %d vertices > bound %d",
				i, p.Slices[i].NumVertices(), maxVertices)
		}
	}
	p.CutEdges = totalCut(g, p)
	return p, nil
}

// Split partitions g into at most parts contiguous slices — the
// worker-sharding entry point used by the parallel solver (psolve). It is
// Contiguous with the bound expressed as a slice count: a graph with fewer
// vertices than parts yields one single-vertex slice per vertex, and an
// empty graph yields zero slices. parts must be positive.
func Split(g graph.Adjacency, parts, refine int) (*Partitioning, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("partition: parts=%d, want > 0", parts)
	}
	n := g.NumVertices()
	if n == 0 {
		return &Partitioning{}, nil
	}
	if parts > n {
		parts = n
	}
	return Contiguous(g, (n+parts-1)/parts, refine)
}

// boundaryCut counts edges crossing the single boundary bounds[b] in either
// direction, restricted to the two slices adjacent to it. It is the local
// objective for refinement.
func boundaryCut(g graph.Adjacency, bounds []int, b int) int {
	lo, mid, hi := bounds[b-1], bounds[b], bounds[b+1]
	cut := 0
	for v := lo; v < hi; v++ {
		left := v < mid
		for _, d := range g.Neighbors(graph.VertexID(v)) {
			if int(d) < lo || int(d) >= hi {
				continue
			}
			if left != (int(d) < mid) {
				cut++
			}
		}
	}
	return cut
}

// Cut counts all edges whose endpoints are in different slices of p — the
// edge-cut objective, exported for callers that build a Partitioning from
// externally fixed boundaries (e.g. shard-to-slice alignment in psolve).
func Cut(g graph.Adjacency, p *Partitioning) int { return totalCut(g, p) }

// totalCut counts all edges whose endpoints are in different slices.
func totalCut(g graph.Adjacency, p *Partitioning) int {
	cut := 0
	for v := 0; v < g.NumVertices(); v++ {
		sv := p.SliceOf(graph.VertexID(v))
		for _, d := range g.Neighbors(graph.VertexID(v)) {
			if p.SliceOf(d) != sv {
				cut++
			}
		}
	}
	return cut
}

// DegreeOrderPermutation returns a permutation that relabels vertices so
// that ids follow a breadth-first order from the highest-out-degree vertex.
// Applying it before Contiguous clusters well-connected vertices into the
// same slice, which is the cheap stand-in for the offline partitioners the
// paper cites.
func DegreeOrderPermutation(g graph.Adjacency) []graph.VertexID {
	n := g.NumVertices()
	perm := make([]graph.VertexID, n)
	visited := make([]bool, n)
	next := graph.VertexID(0)
	// Seed BFS from the max-degree vertex, then sweep remaining unvisited.
	start := graph.VertexID(0)
	bestDeg := -1
	for v := 0; v < n; v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > bestDeg {
			bestDeg, start = d, graph.VertexID(v)
		}
	}
	queue := make([]graph.VertexID, 0, n)
	enqueue := func(v graph.VertexID) {
		if !visited[v] {
			visited[v] = true
			queue = append(queue, v)
		}
	}
	enqueue(start)
	for seed := 0; seed <= n; seed++ {
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			perm[v] = next
			next++
			for _, d := range g.Neighbors(v) {
				enqueue(d)
			}
		}
		if int(next) == n {
			break
		}
		// Find the next unvisited vertex and continue.
		for v := 0; v < n; v++ {
			if !visited[v] {
				enqueue(graph.VertexID(v))
				break
			}
		}
	}
	return perm
}
