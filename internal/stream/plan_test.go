package stream

import (
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// Monotone algorithms must agree with a cold solve exactly (the
// repository's tolerance policy in internal/conformance assigns them
// tolerance 0); the sum-based algorithms are compared there, under the
// shared policy, not here.

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.CSR {
	t.Helper()
	g, err := graph.FromEdges(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func exactMatch(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] && !(isInf(got[v]) && isInf(want[v])) {
			t.Fatalf("%s: vertex %d = %g, want %g", label, v, got[v], want[v])
		}
	}
}

func isInf(v float64) bool { return v > 1e300 || v < -1e300 }

// applyPlan runs the warm continuation a plan describes and returns the
// re-converged values.
func applyPlan(t *testing.T, alg algorithms.Algorithm, newG *graph.CSR, plan *Plan) []float64 {
	t.Helper()
	if plan.Replay {
		t.Fatalf("plan unexpectedly demands a replay (cone %d)", plan.ConeSize)
	}
	warm := algorithms.WarmStart(alg, plan.State, plan.Seeds)
	return algorithms.Solve(newG, warm).Values
}

func TestPlanRestartDeleteShortcutSSSP(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with a cheap shortcut 0 -> 3. Deleting the shortcut
	// must re-route 3 (and only 3's cone) onto the long path.
	edges := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 0, Dst: 3, Weight: 0.5},
	}
	old := mustGraph(t, 5, edges)
	removed := []graph.Edge{{Src: 0, Dst: 3, Weight: 0.5}}
	newG := mustGraph(t, 5, edges[:3])

	alg := algorithms.NewSSSP(0)
	state := algorithms.Solve(old, alg).Values
	if state[3] != 0.5 {
		t.Fatalf("precondition: converged distance to 3 is %g, want 0.5 via the shortcut", state[3])
	}

	plan, err := PlanRestart(algorithms.NewSSSP(0), newG, nil, removed, state, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The cone is exactly {3} (3 has no out-edges), leaving 0..2 frozen.
	if plan.ConeSize != 1 {
		t.Fatalf("cone size = %d, want 1", plan.ConeSize)
	}
	got := applyPlan(t, algorithms.NewSSSP(0), newG, plan)
	exactMatch(t, "sssp after shortcut delete", got, algorithms.Solve(newG, algorithms.NewSSSP(0)).Values)
	if got[3] != 3 {
		t.Fatalf("distance to 3 = %g, want 3 via the long path", got[3])
	}
}

func TestPlanRestartReachDeleteDoesNotFabricateReachability(t *testing.T) {
	// Reach propagates the constant 0 ("reached"), so a naive boundary
	// seeding that forwards an unreached (identity-valued) source would
	// wrongly mark the cone reached. Deleting the only bridge must leave
	// the downstream side unreached.
	edges := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 3, Dst: 2, Weight: 1}, // in-edge into the cone from unreached 3
	}
	old := mustGraph(t, 4, edges)
	removed := []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}
	newG := mustGraph(t, 4, edges[1:])

	state := algorithms.Solve(old, algorithms.NewReach(0)).Values
	plan, err := PlanRestart(algorithms.NewReach(0), newG, nil, removed, state, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := applyPlan(t, algorithms.NewReach(0), newG, plan)
	exactMatch(t, "reach after bridge delete", got, algorithms.Solve(newG, algorithms.NewReach(0)).Values)
	if !isInf(got[1]) || !isInf(got[2]) {
		t.Fatalf("vertices 1,2 = %g,%g after losing the bridge, want unreached", got[1], got[2])
	}
}

func TestPlanRestartMixedInsertDeleteCC(t *testing.T) {
	// Connected components (max-label propagation): moving an edge changes
	// which high label floods where.
	oldEdges := []graph.Edge{
		{Src: 5, Dst: 0, Weight: 1}, {Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
	}
	old := mustGraph(t, 6, oldEdges)
	removed := []graph.Edge{{Src: 5, Dst: 0, Weight: 1}}
	added := []graph.Edge{{Src: 5, Dst: 3, Weight: 1}}
	newG := mustGraph(t, 6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 5, Dst: 3, Weight: 1},
	})

	state := algorithms.Solve(old, algorithms.NewConnectedComponents()).Values
	plan, err := PlanRestart(algorithms.NewConnectedComponents(), newG, added, removed, state, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := applyPlan(t, algorithms.NewConnectedComponents(), newG, plan)
	exactMatch(t, "cc after edge move", got,
		algorithms.Solve(newG, algorithms.NewConnectedComponents()).Values)
}

func TestPlanRestartReplayFallback(t *testing.T) {
	// A chain's head feeds everything downstream: deleting its first edge
	// puts nearly every vertex in the cone, tripping the replay cutoff.
	var edges []graph.Edge
	for i := 0; i < 9; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1})
	}
	old := mustGraph(t, 10, edges)
	state := algorithms.Solve(old, algorithms.NewSSSP(0)).Values
	newG := mustGraph(t, 10, edges[1:])

	plan, err := PlanRestart(algorithms.NewSSSP(0), newG, nil, edges[:1], state, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Replay {
		t.Fatalf("cone of %d/10 vertices did not trip the 0.3 replay cutoff", plan.ConeSize)
	}
	if plan.ConeSize != 9 {
		t.Fatalf("cone size = %d, want 9 (every vertex downstream of the cut)", plan.ConeSize)
	}
}

func TestPlanRestartRejectsBadInput(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	if _, err := PlanRestart(algorithms.NewSSSP(0), g, nil, nil, make([]float64, 2), 0); err == nil {
		t.Fatal("state/vertex-count mismatch accepted")
	}
	if _, err := PlanRestart(algorithms.NewSSSP(0), g, nil,
		[]graph.Edge{{Src: 9, Dst: 0}}, make([]float64, 3), 0); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}
