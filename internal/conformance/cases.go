package conformance

import (
	"fmt"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// Shape is one graph topology in the conformance matrix. The set spans the
// regimes that stress different engine machinery: power-law skew (R-MAT)
// for coalescing, uniform randomness for routing, grids/chains for deep
// dependence (many rounds, worst-case lookahead), and a star for extreme
// hub reactivation.
type Shape struct {
	Name string
	// Build generates the graph deterministically from seed.
	Build func(seed int64) (*graph.CSR, error)
}

// Shapes returns the standard conformance topologies, sized so the full
// shapes × algorithms × engines matrix stays fast enough for every CI run.
func Shapes() []Shape {
	return []Shape{
		{Name: "rmat", Build: func(seed int64) (*graph.CSR, error) {
			return gen.RMAT(gen.RMATParams{
				A: 0.57, B: 0.19, C: 0.19, D: 0.05,
				Scale: 8, EdgeFactor: 4, Weighted: true, Seed: seed,
			})
		}},
		{Name: "erdos-renyi", Build: func(seed int64) (*graph.CSR, error) {
			return gen.ErdosRenyi(220, 900, true, seed)
		}},
		{Name: "grid", Build: func(seed int64) (*graph.CSR, error) {
			return gen.Grid2D(9, 7, true, seed)
		}},
		{Name: "chain", Build: func(seed int64) (*graph.CSR, error) {
			return gen.Chain(60, true)
		}},
		{Name: "star", Build: func(seed int64) (*graph.CSR, error) {
			return gen.Star(40)
		}},
	}
}

// AlgCase describes one algorithm in the conformance matrix.
type AlgCase struct {
	Name string
	// New builds a fresh instance rooted at root (ignored by rootless
	// algorithms).
	New func(root graph.VertexID) algorithms.Algorithm
	// Prepare derives the graph variant the algorithm is defined on (e.g.
	// Adsorption requires inbound-normalized weights, Section VI-A); nil
	// means the graph is used as-is.
	Prepare func(g *graph.CSR) *graph.CSR
	// Incremental reports whether the algorithm supports SeedInsertions.
	Incremental bool
}

// conformanceThreshold tightens the sum-based algorithms' propagation
// threshold for conformance runs: the Tolerance bound scales with θ, so a
// small θ keeps the required agreement meaningfully tight.
const conformanceThreshold = 1e-7

// Algorithms returns the standard conformance algorithm set — the five
// Table II applications plus the two extensions.
func Algorithms() []AlgCase {
	return []AlgCase{
		{
			Name: "pagerank-delta",
			New: func(graph.VertexID) algorithms.Algorithm {
				pr := algorithms.NewPageRankDelta()
				pr.Threshold = conformanceThreshold
				return pr
			},
			Incremental: true,
		},
		{
			Name: "adsorption",
			New: func(graph.VertexID) algorithms.Algorithm {
				ad := algorithms.NewAdsorption()
				ad.Threshold = conformanceThreshold
				return ad
			},
			Prepare: func(g *graph.CSR) *graph.CSR { return g.NormalizeInbound() },
		},
		{
			Name:        "sssp",
			New:         func(root graph.VertexID) algorithms.Algorithm { return algorithms.NewSSSP(root) },
			Incremental: true,
		},
		{
			Name:        "bfs",
			New:         func(root graph.VertexID) algorithms.Algorithm { return algorithms.NewBFS(root) },
			Incremental: true,
		},
		{
			Name:        "reach",
			New:         func(root graph.VertexID) algorithms.Algorithm { return algorithms.NewReach(root) },
			Incremental: true,
		},
		{
			Name: "connected-components",
			New: func(graph.VertexID) algorithms.Algorithm {
				return algorithms.NewConnectedComponents()
			},
			Incremental: true,
		},
		{
			Name:        "sswp",
			New:         func(root graph.VertexID) algorithms.Algorithm { return algorithms.NewSSWP(root) },
			Incremental: true,
		},
		{
			Name:        "reliable-path",
			New:         func(root graph.VertexID) algorithms.Algorithm { return algorithms.NewReliablePath(root) },
			Incremental: true,
		},
	}
}

// AlgCaseByName returns the registered case with the given name.
func AlgCaseByName(name string) (AlgCase, error) {
	for _, c := range Algorithms() {
		if c.Name == name {
			return c, nil
		}
	}
	return AlgCase{}, fmt.Errorf("conformance: unknown algorithm %q", name)
}

// Prepared returns the graph variant c runs on.
func (c AlgCase) Prepared(g *graph.CSR) *graph.CSR {
	if c.Prepare == nil {
		return g
	}
	return c.Prepare(g)
}

// Maker returns a fresh-algorithm factory bound to (c, root).
func (c AlgCase) Maker(root graph.VertexID) func() algorithms.Algorithm {
	return func() algorithms.Algorithm { return c.New(root) }
}
