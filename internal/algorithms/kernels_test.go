package algorithms_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/stream"
)

// opaque hides an algorithm's concrete type from the solver's dispatch, so
// SolveCtx runs it through the interface loop: the reference every
// specialised loop is measured and tested against.
type opaque struct{ algorithms.Algorithm }

// identityGraph is one graph shape of the identity test. onStore solves
// run on a graphpack store of the graph instead of the CSR; normalize
// gives adsorption inbound-normalized weights, without which it diverges
// on any graph with in-degrees above 1.
type identityGraph struct {
	name               string
	g                  *graph.CSR
	onStore, normalize bool
}

func identityGraphs(t *testing.T) []identityGraph {
	t.Helper()
	// rmat adds a sink reached from the root, an isolated vertex and a
	// zero-weight edge to an R-MAT graph (which has sinks of its own).
	rmat := func(weighted bool, seed int64) *graph.CSR {
		g, err := gen.RMAT(gen.RMATParams{
			A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 8,
			Weighted: weighted, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		edges := append(g.Edges(),
			graph.Edge{Src: 0, Dst: graph.VertexID(n), Weight: 0.5},
			graph.Edge{Src: 1, Dst: 2, Weight: 0})
		out, err := graph.FromEdges(n+2, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	grid, err := gen.Grid2D(12, 12, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := gen.Chain(64, false)
	if err != nil {
		t.Fatal(err)
	}
	weighted := rmat(true, 31)
	return []identityGraph{
		{"rmat-weighted", weighted, false, true},
		{"rmat-unweighted", rmat(false, 32), false, true},
		{"grid", grid, false, true},
		{"chain-unweighted", chain, false, false},
		{"store-quarter", weighted, true, true},
	}
}

// quarterStore packs g into a graphpack store resident at a quarter of its
// decoded size, so a solve decodes and evicts slices as it sweeps.
func quarterStore(t *testing.T, g *graph.CSR) *ooc.Store {
	t.Helper()
	var pack bytes.Buffer
	if err := ooc.Write(&pack, g, ooc.WriteOptions{Slices: 8}); err != nil {
		t.Fatal(err)
	}
	decoded := int64(len(g.RowPtr))*8 + int64(len(g.Dst)+len(g.Weight))*4
	path := filepath.Join(t.TempDir(), "g.graphpack")
	if err := os.WriteFile(path, pack.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ooc.Open(path, decoded/4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// restart is one way a solve starts: the change turning base into cur and
// the cone cap handed to stream.Restart.
type restart struct {
	kind           stream.Mode
	cur            *graph.CSR
	added, removed []graph.Edge
	maxConeFrac    float64
}

// restarts returns a cold, a warm-insert and a cone-delete restart of base.
// Cold is the delete change with a cone cap no cone fits under, which is
// Restart's replay fallback.
func restarts(t *testing.T, base *graph.CSR) []restart {
	t.Helper()
	n := graph.VertexID(base.NumVertices())
	edges := base.Edges()
	w := func(x float32) float32 {
		if !base.Weighted() {
			return 1
		}
		return x
	}
	// Small weights keep adsorption's inbound-normalized graph convergent.
	added := []graph.Edge{
		{Src: 0, Dst: n - 1, Weight: w(0.2)},
		{Src: edges[0].Src, Dst: n / 2, Weight: w(0.1)},
		{Src: n / 3, Dst: 0, Weight: w(0)},
		{Src: n / 2, Dst: n / 3, Weight: w(0.15)},
	}
	grown, err := graph.FromEdges(int(n), append(append([]graph.Edge(nil), edges...), added...), base.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	drop := map[int]bool{0: true, len(edges) / 3: true, len(edges) / 2: true, len(edges) - 1: true}
	var kept, removed []graph.Edge
	for i, e := range edges {
		if drop[i] {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	shrunk, err := graph.FromEdges(int(n), kept, base.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	return []restart{
		{kind: stream.Cold, cur: shrunk, removed: removed, maxConeFrac: 1e-9},
		{kind: stream.Warm, cur: grown, added: added},
		{kind: stream.Cone, cur: shrunk, removed: removed, maxConeFrac: 1},
	}
}

// TestSpecialisedLoopsMatchReference holds every specialised loop to the
// interface loop bit for bit: Values (compared as float64 bits),
// Activations and Emitted, for every algorithm × graph shape × restart.
func TestSpecialisedLoopsMatchReference(t *testing.T) {
	// Every solve runs under a deadline, so a loop that never stops
	// changing fails its cell by name instead of hanging the binary.
	solve := func(where string, g graph.Adjacency, alg algorithms.Algorithm) *algorithms.SolveResult {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		res, err := algorithms.SolveCtx(ctx, g, alg)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		return res
	}
	for _, ig := range identityGraphs(t) {
		for _, name := range algorithms.Names() {
			mk := func() algorithms.Algorithm {
				alg, err := algorithms.ByName(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				return alg
			}
			base := ig.g
			if name == "ads" && ig.normalize {
				base = base.NormalizeInbound()
			}
			converged := solve(ig.name+"/"+name+"/converged", base, mk()).Values
			for _, r := range restarts(t, base) {
				alg, mode := stream.Restart(mk(), base, r.cur, r.added, r.removed, converged, r.maxConeFrac)
				want := r.kind
				if r.kind == stream.Warm {
					if _, ok := mk().(algorithms.InsertionSeeder); !ok {
						want = stream.Cold
					}
				}
				if mode != want {
					t.Fatalf("%s/%s/%s: Restart chose %s, want %s", ig.name, name, r.kind, mode, want)
				}
				var g graph.Adjacency = r.cur
				var st *ooc.Store
				if ig.onStore {
					st = quarterStore(t, r.cur)
					g = st
				}
				where := ig.name + "/" + name + "/" + string(r.kind)
				fast := solve(where, g, alg)
				ref := solve(where+"/reference", g, opaque{alg})
				if st != nil && fast.Emitted > 0 && st.Counters().Evictions == 0 {
					t.Errorf("%s: the store ran fully resident", where)
				}
				if fast.Activations != ref.Activations || fast.Emitted != ref.Emitted {
					t.Errorf("%s: activations/emitted %d/%d, reference %d/%d",
						where, fast.Activations, fast.Emitted, ref.Activations, ref.Emitted)
				}
				for v := range ref.Values {
					if math.Float64bits(fast.Values[v]) != math.Float64bits(ref.Values[v]) {
						t.Errorf("%s: vertex %d = %v (%#x), reference %v (%#x)", where, v,
							fast.Values[v], math.Float64bits(fast.Values[v]),
							ref.Values[v], math.Float64bits(ref.Values[v]))
						break
					}
				}
			}
		}
	}
}

// TestSolveAllocations guards the solver's allocation count: the
// specialised loops allocate no more per solve than the reference loop,
// and the count does not grow from a tiny to a mini graph, so nothing is
// allocated per activation or per edge. AllocsPerRun counts mallocs across
// the whole process, and another goroutine's allocation can only add to a
// run, so each count is the fewest of up to five single solves; the mini
// solves stop at the first count within the tiny one, since the race
// detector makes each of them slow.
func TestSolveAllocations(t *testing.T) {
	fewest := func(limit float64, solve func()) float64 {
		allocs := math.Inf(1)
		for i := 0; i < 5 && allocs > limit; i++ {
			allocs = min(allocs, testing.AllocsPerRun(1, solve))
		}
		return allocs
	}
	spec, err := gen.DatasetByAbbrev("WG")
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := spec.Generate(gen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	mini, err := spec.Generate(gen.Mini)
	if err != nil {
		t.Fatal(err)
	}
	tinyAds, miniAds := tiny.NormalizeInbound(), mini.NormalizeInbound()
	for _, name := range algorithms.Names() {
		alg, err := algorithms.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		small, large := tiny, mini
		if name == "ads" {
			small, large = tinyAds, miniAds
		}
		fast := fewest(0, func() { algorithms.Solve(small, alg) })
		ref := fewest(0, func() { algorithms.Solve(small, opaque{alg}) })
		grown := fewest(fast, func() { algorithms.Solve(large, alg) })
		if fast > ref {
			t.Errorf("%s: %v allocs per solve, reference loop %v", name, fast, ref)
		}
		if grown > fast {
			t.Errorf("%s: %v allocs per solve on %d vertices, %v on %d", name,
				grown, large.NumVertices(), fast, small.NumVertices())
		}
	}
}
