package algorithms

import (
	"math"

	"graphpulse/internal/graph"
)

// PageRankDelta is the contribution-based incremental PageRank of Table II
// (commonly "PageRankDelta"): propagate α·δ/N(src), reduce +, V_init 0,
// ΔV_init 1-α. A vertex propagates only while its accumulated change
// exceeds Threshold.
type PageRankDelta struct {
	// Alpha is the damping factor (paper-standard 0.85).
	Alpha float64
	// Threshold is the local termination bound on |Δ|.
	Threshold float64
}

// NewPageRankDelta returns the standard configuration (α=0.85, θ=1e-4).
func NewPageRankDelta() *PageRankDelta {
	return &PageRankDelta{Alpha: 0.85, Threshold: 1e-4}
}

// Name implements Algorithm.
func (p *PageRankDelta) Name() string { return "pagerank-delta" }

// Identity implements Algorithm.
func (p *PageRankDelta) Identity() Value { return 0 }

// Reduce implements Algorithm (sum).
func (p *PageRankDelta) Reduce(a, b Value) Value { return a + b }

// Propagate implements Algorithm: α·δ/N(src).
func (p *PageRankDelta) Propagate(delta Value, e EdgeContext) Value {
	if e.SrcOutDegree == 0 {
		return 0
	}
	return p.Alpha * delta / float64(e.SrcOutDegree)
}

// InitState implements Algorithm: ranks start at 0.
func (p *PageRankDelta) InitState(graph.VertexID) Value { return 0 }

// InitialEvents implements Algorithm: every vertex receives 1-α.
func (p *PageRankDelta) InitialEvents(g graph.Adjacency) []InitialEvent {
	out := make([]InitialEvent, g.NumVertices())
	for v := range out {
		out[v] = InitialEvent{Vertex: graph.VertexID(v), Delta: 1 - p.Alpha}
	}
	return out
}

// Changed implements Algorithm: propagate while |Δ| > Threshold.
func (p *PageRankDelta) Changed(old, new Value) bool {
	return math.Abs(new-old) > p.Threshold
}

// Progress implements Progressor: global progress is Σ|Δ| (Section IV-C's
// PageRank example).
func (p *PageRankDelta) Progress(old, new Value) float64 { return math.Abs(new - old) }

// Adsorption is the label-propagation algorithm of Table II: propagate
// α·E_ij·δ, reduce +, V_init 0, ΔV_init β·I_j. Continuation and injection
// probabilities are uniform here (the paper randomizes edge weights
// instead, which our dataset stand-ins also do).
type Adsorption struct {
	// Alpha is the continuation probability applied on every edge.
	Alpha float64
	// Beta is the injection probability scaling the seed values.
	Beta float64
	// Injection returns I_j, the prior for vertex j. Defaults to 1.
	Injection func(v graph.VertexID) float64
	// Threshold is the local termination bound on |Δ|.
	Threshold float64
}

// NewAdsorption returns the standard configuration (α=0.8, β=0.2, I=1,
// θ=1e-4).
func NewAdsorption() *Adsorption {
	return &Adsorption{Alpha: 0.8, Beta: 0.2, Threshold: 1e-4}
}

// Name implements Algorithm.
func (a *Adsorption) Name() string { return "adsorption" }

// Identity implements Algorithm.
func (a *Adsorption) Identity() Value { return 0 }

// Reduce implements Algorithm (sum).
func (a *Adsorption) Reduce(x, y Value) Value { return x + y }

// Propagate implements Algorithm: α·E_ij·δ.
func (a *Adsorption) Propagate(delta Value, e EdgeContext) Value {
	return a.Alpha * float64(e.Weight) * delta
}

// WantsWeights implements WantsWeights.
func (a *Adsorption) WantsWeights() bool { return true }

// InitState implements Algorithm.
func (a *Adsorption) InitState(graph.VertexID) Value { return 0 }

// InitialEvents implements Algorithm: β·I_j for every vertex.
func (a *Adsorption) InitialEvents(g graph.Adjacency) []InitialEvent {
	out := make([]InitialEvent, g.NumVertices())
	for v := range out {
		inj := 1.0
		if a.Injection != nil {
			inj = a.Injection(graph.VertexID(v))
		}
		out[v] = InitialEvent{Vertex: graph.VertexID(v), Delta: a.Beta * inj}
	}
	return out
}

// Changed implements Algorithm.
func (a *Adsorption) Changed(old, new Value) bool {
	return math.Abs(new-old) > a.Threshold
}

// Progress implements Progressor.
func (a *Adsorption) Progress(old, new Value) float64 { return math.Abs(new - old) }

// SSSP is single-source shortest paths (Table II): propagate E_ij+δ,
// reduce min, V_init ∞, ΔV_init 0 at the root.
type SSSP struct {
	// Root is the source vertex.
	Root graph.VertexID
}

// NewSSSP returns SSSP from the given root.
func NewSSSP(root graph.VertexID) *SSSP { return &SSSP{Root: root} }

// Name implements Algorithm.
func (s *SSSP) Name() string { return "sssp" }

// Identity implements Algorithm.
func (s *SSSP) Identity() Value { return Infinity }

// Reduce implements Algorithm (min).
func (s *SSSP) Reduce(a, b Value) Value { return min(a, b) }

// Propagate implements Algorithm: E_ij + δ.
func (s *SSSP) Propagate(delta Value, e EdgeContext) Value {
	return float64(e.Weight) + delta
}

// WantsWeights implements WantsWeights.
func (s *SSSP) WantsWeights() bool { return true }

// InitState implements Algorithm.
func (s *SSSP) InitState(graph.VertexID) Value { return Infinity }

// InitialEvents implements Algorithm: the root receives distance 0.
func (s *SSSP) InitialEvents(graph.Adjacency) []InitialEvent {
	return []InitialEvent{{Vertex: s.Root, Delta: 0}}
}

// Changed implements Algorithm: any improvement propagates.
func (s *SSSP) Changed(old, new Value) bool { return new < old }

// BFS computes hop levels from a root: propagate δ+1, reduce min, V_init ∞,
// ΔV_init 0 at the root. Table II lists propagate as the constant 0, which
// computes reachability; the evaluation text describes level-style rounds,
// so levels are the default here and Reach provides the literal row.
type BFS struct {
	// Root is the source vertex.
	Root graph.VertexID
}

// NewBFS returns BFS from the given root.
func NewBFS(root graph.VertexID) *BFS { return &BFS{Root: root} }

// Name implements Algorithm.
func (b *BFS) Name() string { return "bfs" }

// Identity implements Algorithm.
func (b *BFS) Identity() Value { return Infinity }

// Reduce implements Algorithm (min).
func (b *BFS) Reduce(x, y Value) Value { return min(x, y) }

// Propagate implements Algorithm: δ + 1.
func (b *BFS) Propagate(delta Value, _ EdgeContext) Value { return delta + 1 }

// InitState implements Algorithm.
func (b *BFS) InitState(graph.VertexID) Value { return Infinity }

// InitialEvents implements Algorithm.
func (b *BFS) InitialEvents(graph.Adjacency) []InitialEvent {
	return []InitialEvent{{Vertex: b.Root, Delta: 0}}
}

// Changed implements Algorithm.
func (b *BFS) Changed(old, new Value) bool { return new < old }

// Reach is the literal Table II BFS row: propagate 0, reduce min, so every
// vertex reachable from the root converges to 0 and the rest stay ∞.
type Reach struct {
	// Root is the source vertex.
	Root graph.VertexID
}

// NewReach returns reachability from the given root.
func NewReach(root graph.VertexID) *Reach { return &Reach{Root: root} }

// Name implements Algorithm.
func (r *Reach) Name() string { return "reach" }

// Identity implements Algorithm.
func (r *Reach) Identity() Value { return Infinity }

// Reduce implements Algorithm (min).
func (r *Reach) Reduce(x, y Value) Value { return min(x, y) }

// Propagate implements Algorithm: the constant 0.
func (r *Reach) Propagate(Value, EdgeContext) Value { return 0 }

// InitState implements Algorithm.
func (r *Reach) InitState(graph.VertexID) Value { return Infinity }

// InitialEvents implements Algorithm.
func (r *Reach) InitialEvents(graph.Adjacency) []InitialEvent {
	return []InitialEvent{{Vertex: r.Root, Delta: 0}}
}

// Changed implements Algorithm.
func (r *Reach) Changed(old, new Value) bool { return new < old }

// ConnectedComponents labels every vertex with the largest vertex id in its
// (weakly, if run on a symmetrized graph) connected component: propagate δ,
// reduce max, V_init -1, ΔV_init j (Table II).
type ConnectedComponents struct{}

// NewConnectedComponents returns the component-labeling algorithm.
func NewConnectedComponents() *ConnectedComponents { return &ConnectedComponents{} }

// Name implements Algorithm.
func (c *ConnectedComponents) Name() string { return "connected-components" }

// Identity implements Algorithm (-∞ for max).
func (c *ConnectedComponents) Identity() Value { return math.Inf(-1) }

// Reduce implements Algorithm (max).
func (c *ConnectedComponents) Reduce(a, b Value) Value { return max(a, b) }

// Propagate implements Algorithm: forward the label unchanged.
func (c *ConnectedComponents) Propagate(delta Value, _ EdgeContext) Value { return delta }

// InitState implements Algorithm: Table II's -1.
func (c *ConnectedComponents) InitState(graph.VertexID) Value { return -1 }

// InitialEvents implements Algorithm: every vertex proposes its own id.
func (c *ConnectedComponents) InitialEvents(g graph.Adjacency) []InitialEvent {
	out := make([]InitialEvent, g.NumVertices())
	for v := range out {
		out[v] = InitialEvent{Vertex: graph.VertexID(v), Delta: Value(v)}
	}
	return out
}

// Changed implements Algorithm.
func (c *ConnectedComponents) Changed(old, new Value) bool { return new > old }

// SSWP is single-source widest path (an extension beyond Table II,
// exercising a min-on-edge/max-on-vertex semiring): propagate min(δ, E_ij),
// reduce max, V_init -∞, ΔV_init ∞ at the root.
type SSWP struct {
	// Root is the source vertex.
	Root graph.VertexID
}

// NewSSWP returns widest-path from the given root.
func NewSSWP(root graph.VertexID) *SSWP { return &SSWP{Root: root} }

// Name implements Algorithm.
func (s *SSWP) Name() string { return "sswp" }

// Identity implements Algorithm.
func (s *SSWP) Identity() Value { return math.Inf(-1) }

// Reduce implements Algorithm (max).
func (s *SSWP) Reduce(a, b Value) Value { return max(a, b) }

// Propagate implements Algorithm: the path width is throttled by each edge.
func (s *SSWP) Propagate(delta Value, e EdgeContext) Value {
	return min(delta, float64(e.Weight))
}

// WantsWeights implements WantsWeights.
func (s *SSWP) WantsWeights() bool { return true }

// InitState implements Algorithm.
func (s *SSWP) InitState(graph.VertexID) Value { return math.Inf(-1) }

// InitialEvents implements Algorithm.
func (s *SSWP) InitialEvents(graph.Adjacency) []InitialEvent {
	return []InitialEvent{{Vertex: s.Root, Delta: Infinity}}
}

// Changed implements Algorithm.
func (s *SSWP) Changed(old, new Value) bool { return new > old }

// ReliablePath is most-reliable path (an extension beyond Table II): edge
// weights in (0,1] are traversal success probabilities, a path's
// reliability is their product, and each vertex converges to the maximum
// reliability of any path from the root: propagate δ·E_ij, reduce max,
// V_init 0, ΔV_init 1 at the root. Multiplication by a positive constant
// distributes over max, so the coalescing laws hold.
type ReliablePath struct {
	// Root is the source vertex.
	Root graph.VertexID
}

// NewReliablePath returns most-reliable-path from the given root.
func NewReliablePath(root graph.VertexID) *ReliablePath { return &ReliablePath{Root: root} }

// Name implements Algorithm.
func (r *ReliablePath) Name() string { return "reliable-path" }

// Identity implements Algorithm (-∞, the true identity for max; vertex
// state still starts at 0 = "unreached", per Table II's style of using a
// domain-specific initial value).
func (r *ReliablePath) Identity() Value { return math.Inf(-1) }

// Reduce implements Algorithm (max).
func (r *ReliablePath) Reduce(a, b Value) Value { return max(a, b) }

// Propagate implements Algorithm: the path reliability decays by each
// edge's success probability.
func (r *ReliablePath) Propagate(delta Value, e EdgeContext) Value {
	return delta * float64(e.Weight)
}

// WantsWeights implements WantsWeights.
func (r *ReliablePath) WantsWeights() bool { return true }

// InitState implements Algorithm.
func (r *ReliablePath) InitState(graph.VertexID) Value { return 0 }

// InitialEvents implements Algorithm: the root is reached with certainty.
func (r *ReliablePath) InitialEvents(graph.Adjacency) []InitialEvent {
	return []InitialEvent{{Vertex: r.Root, Delta: 1}}
}

// Changed implements Algorithm.
func (r *ReliablePath) Changed(old, new Value) bool { return new > old }

// SeedInsertions implements InsertionSeeder.
func (r *ReliablePath) SeedInsertions(old graph.Adjacency, added []graph.Edge, state []Value) []InitialEvent {
	return monotoneSeed(r, old, added, state, countDegreeDelta(added))
}
