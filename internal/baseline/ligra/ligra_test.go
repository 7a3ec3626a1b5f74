package ligra

import (
	"math"
	"testing"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

func testGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 11, EdgeFactor: 8,
		Weighted: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertMatch(t *testing.T, label string, got, want []float64, tol float64) {
	t.Helper()
	bad := 0
	for v := range want {
		a, b := got[v], want[v]
		if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) || (math.IsInf(a, -1) && math.IsInf(b, -1)) {
			continue
		}
		if math.Abs(a-b) > tol {
			bad++
			if bad <= 3 {
				t.Errorf("%s: vertex %d = %g, want %g", label, v, a, b)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d mismatches", label, bad)
	}
}

// Oracle-agreement tests live in ligra_conformance_test.go, which routes
// them through the shared internal/conformance harness and tolerance policy.

// TestLigraSingleThreadMatchesParallel: push-direction sums combine in
// whatever order the threads reach them, yet the run's shape — the
// iteration count and every access count, which are all ModelSeconds reads —
// must not depend on scheduling.
func TestLigraSingleThreadMatchesParallel(t *testing.T) {
	g := testGraph(t)
	one := DefaultConfig()
	one.Threads = 1
	many := DefaultConfig()
	many.Threads = 8
	root := graph.BestRoot(g)
	cases := []struct {
		name string
		g    *graph.CSR
		alg  func() algorithms.Algorithm
	}{
		{"sssp", g, func() algorithms.Algorithm { return algorithms.NewSSSP(root) }},
		{"pr", g, func() algorithms.Algorithm { return algorithms.NewPageRankDelta() }},
		{"ads", g.NormalizeInbound(), func() algorithms.Algorithm { return algorithms.NewAdsorption() }},
	}
	for _, c := range cases {
		a := New(one, c.g).Run(c.alg())
		b := New(many, c.g).Run(c.alg())
		assertMatch(t, c.name, b.Values, a.Values, 1e-9)
		if a.Iterations != b.Iterations || a.Access != b.Access {
			t.Errorf("%s: 1 thread %d iterations %+v, 8 threads %d iterations %+v",
				c.name, a.Iterations, a.Access, b.Iterations, b.Access)
		}
	}
}

func TestLigraDirectionOptimization(t *testing.T) {
	// CC activates the whole graph: direction optimization must pick pull
	// for at least one iteration; BFS from a single source starts sparse,
	// so iteration 1 must push.
	g := testGraph(t)
	e := New(DefaultConfig(), g)
	cc := e.Run(algorithms.NewConnectedComponents())
	if cc.PullIterations == 0 {
		t.Errorf("CC used no pull iterations (push=%d)", cc.PushIterations)
	}
	bfs := e.Run(algorithms.NewBFS(graph.BestRoot(g)))
	if bfs.PushIterations == 0 {
		t.Errorf("BFS used no push iterations (pull=%d)", bfs.PullIterations)
	}
}

func TestLigraAccessStats(t *testing.T) {
	g := testGraph(t)
	push := DefaultConfig()
	push.Direction = PushOnly
	pull := DefaultConfig()
	pull.Direction = PullOnly
	e1 := New(push, g)
	e2 := New(pull, g)
	alg := algorithms.NewConnectedComponents
	rPush := e1.Run(alg())
	rPull := e2.Run(alg())
	// Table I: push performs atomic random writes; pull performs random
	// reads and no atomics on vertex data.
	if rPush.Access.AtomicUpdates == 0 {
		t.Error("push recorded no atomic updates")
	}
	if rPull.Access.AtomicUpdates != 0 {
		t.Errorf("pull recorded %d atomic updates, want 0", rPull.Access.AtomicUpdates)
	}
	if rPull.Access.RandomReads <= rPush.Access.RandomReads {
		t.Errorf("pull random reads (%d) not above push (%d)",
			rPull.Access.RandomReads, rPush.Access.RandomReads)
	}
	if rPush.Access.RandomWrites <= rPull.Access.RandomWrites {
		t.Errorf("push random writes (%d) not above pull (%d)",
			rPush.Access.RandomWrites, rPull.Access.RandomWrites)
	}
}

func TestLigraEmptyFrontierTerminates(t *testing.T) {
	// Root with no out-edges: one iteration, then done.
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 1, Dst: 2, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	res := New(DefaultConfig(), g).Run(algorithms.NewBFS(0))
	if res.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", res.Iterations)
	}
	if !math.IsInf(res.Values[2], 1) {
		t.Errorf("unreachable vertex got level %g", res.Values[2])
	}
}

func TestLigraEdgesTraversedBounded(t *testing.T) {
	g := testGraph(t)
	res := New(DefaultConfig(), g).Run(algorithms.NewBFS(graph.BestRoot(g)))
	if res.EdgesTraversed == 0 {
		t.Fatal("no edges traversed")
	}
	// BFS settles each vertex once; a pushed vertex scans its out-edges
	// once, so traversals can't exceed |E| by more than the pull-direction
	// overhead factor.
	if res.EdgesTraversed > int64(g.NumEdges())*int64(res.Iterations) {
		t.Errorf("EdgesTraversed=%d implausibly high", res.EdgesTraversed)
	}
}

func TestModelSecondsScalesWithWork(t *testing.T) {
	g := testGraph(t)
	e := New(DefaultConfig(), g)
	small := e.Run(algorithms.NewBFS(graph.BestRoot(g)))
	big := e.Run(algorithms.NewConnectedComponents())
	m := PaperXeon()
	ts, tb := ModelSeconds(small, m), ModelSeconds(big, m)
	if ts <= 0 || tb <= 0 {
		t.Fatalf("non-positive modeled times %g, %g", ts, tb)
	}
	if tb <= ts {
		t.Errorf("CC (%g s) modeled faster than BFS (%g s) despite more work", tb, ts)
	}
}

func TestModelSecondsComponents(t *testing.T) {
	m := PaperXeon()
	res := &Result{Iterations: 10}
	base := ModelSeconds(res, m)
	if want := 10 * m.BarrierCost; base != want {
		t.Errorf("barrier-only time = %g, want %g", base, want)
	}
	res.Access.AtomicUpdates = 1_000_000
	withAtomics := ModelSeconds(res, m)
	if withAtomics <= base {
		t.Error("atomics did not increase modeled time")
	}
	res2 := &Result{Iterations: 10}
	res2.Access.SequentialReads = 1_000_000
	if ModelSeconds(res2, m) <= base {
		t.Error("sequential traffic did not increase modeled time")
	}
	// Zero-core guard.
	m0 := m
	m0.Cores = 0
	if ModelSeconds(res, m0) <= 0 {
		t.Error("zero cores mishandled")
	}
}

func TestModelSecondsSameOrderAsWallClock(t *testing.T) {
	// Sanity: on this host, the modeled 12-core time should be within two
	// orders of magnitude of single-host wall time (it is an analytic
	// model of different hardware, not a profiler).
	g := testGraph(t)
	e := New(DefaultConfig(), g)
	start := time.Now()
	res := e.Run(algorithms.NewConnectedComponents())
	wall := time.Since(start).Seconds()
	modeled := ModelSeconds(res, PaperXeon())
	if modeled > wall*100 || wall > modeled*10_000 {
		t.Errorf("modeled %g s vs wall %g s: unreasonably far apart", modeled, wall)
	}
}
