package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/serve"
)

// buildGraph generates the R-MAT stand-in with the Table IV shape of abbrev
// at tier, seeded by the benchmark seed (not the dataset's shipped seed), so
// a held-out seed changes the graph together with roots and request order.
// The smoke sizing builds the same shape with a quarter of the vertices.
func (h *harness) buildGraph(abbrev string, tier gen.Tier) (*graph.CSR, time.Duration, error) {
	seed, shrink := h.seed, 0
	if h.smoke {
		shrink = 2
	}
	d, err := gen.DatasetByAbbrev(abbrev)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range abbrev {
		seed = seed*131 + int64(c)
	}
	b := (1 - d.Skew - 0.05) / 2
	start := time.Now()
	g, err := gen.RMAT(gen.RMATParams{
		A: d.Skew, B: b, C: b, D: 0.05,
		Scale: d.Scale(tier) - shrink, EdgeFactor: d.EdgeFactor,
		Weighted: true, Seed: seed*131 + int64(tier), NoiseAmount: 0.1,
	})
	return g, time.Since(start), err
}

// reach marks the vertices a breadth-first search from root visits.
func reach(g *graph.CSR, root graph.VertexID) ([]bool, int) {
	seen := make([]bool, g.NumVertices())
	seen[root] = true
	queue := []graph.VertexID{root}
	for i := 0; i < len(queue); i++ {
		for _, d := range g.Neighbors(queue[i]) {
			if !seen[d] {
				seen[d] = true
				queue = append(queue, d)
			}
		}
	}
	return seen, len(queue)
}

// connected counts the vertices with at least one edge, in or out. R-MAT at
// the Table IV edge factors leaves many vertices isolated (53 % of WG:mini
// have no out-edge), so "half the graph" is judged against these.
func connected(g *graph.CSR) int {
	touched := make([]bool, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(graph.VertexID(v))
		if len(nb) > 0 {
			touched[v] = true
		}
		for _, d := range nb {
			touched[d] = true
		}
	}
	count := 0
	for _, t := range touched {
		if t {
			count++
		}
	}
	return count
}

// rootPool returns a hub vertex and every vertex whose reach is at least
// half the connected vertices. A rooted query from anywhere else measures a
// no-op: with the shipped dataset seeds vertex 0 has out-degree 0 on
// WG:tiny and LJ:mini. The hub is the highest-out-degree vertex with that
// reach; every vertex that reaches the hub reaches at least as much.
func rootPool(g *graph.CSR) (graph.VertexID, []graph.VertexID, error) {
	n := g.NumVertices()
	need := connected(g) / 2
	byDegree := make([]graph.VertexID, n)
	for v := range byDegree {
		byDegree[v] = graph.VertexID(v)
	}
	sort.Slice(byDegree, func(a, b int) bool {
		da, db := g.OutDegree(byDegree[a]), g.OutDegree(byDegree[b])
		if da != db {
			return da > db
		}
		return byDegree[a] < byDegree[b]
	})
	for _, hub := range byDegree[:min(8, n)] {
		if _, r := reach(g, hub); r < need {
			continue
		}
		back, _ := reach(g.Transpose(), hub)
		var pool []graph.VertexID
		for v, ok := range back {
			if ok {
				pool = append(pool, graph.VertexID(v))
			}
		}
		return hub, pool, nil
	}
	return 0, nil, fmt.Errorf("no high-degree vertex reaches %d vertices (half the connected ones); rooted queries would measure nothing", need)
}

// query is one query shape: the algorithm, its root and its alpha.
type query struct {
	alg   string
	root  graph.VertexID
	alpha float64 // pr only; 0 = default
}

var algClasses = []string{"pr", "sssp", "bfs", "sswp", "cc"}

func classOf(alg string) int {
	for i, a := range algClasses {
		if a == alg {
			return i
		}
	}
	panic("unknown algorithm " + alg)
}

func (q query) algorithm() algorithms.Algorithm {
	switch q.alg {
	case "pr":
		a := algorithms.NewPageRankDelta()
		if q.alpha != 0 {
			a.Alpha = q.alpha
		}
		return a
	case "sssp":
		return algorithms.NewSSSP(q.root)
	case "bfs":
		return algorithms.NewBFS(q.root)
	case "sswp":
		return algorithms.NewSSWP(q.root)
	case "cc":
		return algorithms.NewConnectedComponents()
	}
	panic("unknown algorithm " + q.alg)
}

func (q query) rooted() bool { return q.alg != "pr" && q.alg != "cc" }

// request builds the /v1/query body for q.
func (q query) request(graphName string) serve.QueryRequest {
	r := serve.QueryRequest{Graph: graphName, Algorithm: q.alg}
	if q.rooted() {
		root := uint32(q.root)
		r.Root = &root
	}
	if q.alpha != 0 {
		alpha := q.alpha
		r.Alpha = &alpha
	}
	return r
}

// reference solves q on g with the serial solver, the oracle every answer
// in the benchmark is compared with. A rooted query that activates fewer
// than a quarter of the vertices is rejected: it would measure a no-op.
// (A quarter of all vertices is about half the connected ones on the
// sparsest shape used, WG.)
func reference(g *graph.CSR, q query) (*algorithms.SolveResult, error) {
	res := algorithms.Solve(g, q.algorithm())
	if q.rooted() && res.Activations < int64(g.NumVertices()/4) {
		return nil, fmt.Errorf("%s from root %d activates %d of %d vertices", q.alg, q.root, res.Activations, g.NumVertices())
	}
	return res, nil
}

// checkValues compares an engine's converged values with the reference
// under the repository's one tolerance policy (exact for min/max).
func checkValues(label string, g *graph.CSR, q query, got, want []float64) error {
	return conformance.CompareValues(label, got, want, conformance.Tolerance(q.algorithm(), g))
}

// checkResponse compares the sum and top list of a /v1/query answer with
// the reference values.
func checkResponse(g *graph.CSR, q query, resp *serve.QueryResponse, want []float64) error {
	tol := conformance.Tolerance(q.algorithm(), g)
	sum, finite := 0.0, 0
	for _, v := range want {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			sum += v
			finite++
		}
	}
	if d := math.Abs(resp.Sum - sum); d > tol*float64(finite)+1e-9*math.Abs(sum) {
		return fmt.Errorf("%s: sum %g, reference %g", q.alg, resp.Sum, sum)
	}
	if len(resp.Top) != min(10, finite) {
		return fmt.Errorf("%s: %d top entries, want %d", q.alg, len(resp.Top), min(10, finite))
	}
	for i, tv := range resp.Top {
		if int(tv.Vertex) >= len(want) || math.Abs(tv.Value-want[tv.Vertex]) > tol {
			return fmt.Errorf("%s: top[%d] vertex %d = %g, reference %g", q.alg, i, tv.Vertex, tv.Value, want[tv.Vertex])
		}
		if i > 0 && tv.Value > resp.Top[i-1].Value {
			return fmt.Errorf("%s: top list not descending at %d", q.alg, i)
		}
	}
	if tol == 0 {
		// Exact algorithms: the top list is fully determined by the values.
		best := math.Inf(-1)
		for _, v := range want {
			if !math.IsInf(v, 0) && !math.IsNaN(v) && v > best {
				best = v
			}
		}
		if len(resp.Top) > 0 && resp.Top[0].Value != best {
			return fmt.Errorf("%s: top value %g, reference maximum %g", q.alg, resp.Top[0].Value, best)
		}
	}
	return nil
}

// csrBytes is the in-RAM footprint of the three CSR arrays.
func csrBytes(g *graph.CSR) int {
	return len(g.RowPtr)*8 + len(g.Dst)*4 + len(g.Weight)*4
}
