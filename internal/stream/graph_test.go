package stream

import (
	"math"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

func solveValues(g *graph.CSR, alg algorithms.Algorithm) ([]float64, error) {
	return algorithms.Solve(g, alg).Values, nil
}

// TestGraphRestartEveryGapMatchesColdOracle scripts insert / insert /
// delete / delete epochs on a Graph and, after each, carries the fixed
// point converged k epochs earlier to the current graph through Since +
// Restart for every gap k = 1…histMax+1 — the multi-epoch path a query
// takes when its cached state is several mutations old. Every covered gap
// must land exactly on the cold solve of the current graph; a gap past
// the history must report itself uncovered (the caller solves cold).
func TestGraphRestartEveryGapMatchesColdOracle(t *testing.T) {
	const histMax = 3
	base := mustGraph(t, 8, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2},
		{Src: 0, Dst: 3, Weight: 4}, {Src: 3, Dst: 4, Weight: 1},
	})
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(0) }
	g := NewGraph(base, histMax)

	steps := []struct {
		name string
		run  func() (Change, error)
	}{
		{"insert shortcut", func() (Change, error) {
			ch, _, _, err := g.Apply([]graph.Edge{{Src: 2, Dst: 4, Weight: 0.5}}, nil)
			return ch, err
		}},
		{"insert chain", func() (Change, error) {
			ch, _, _, err := g.Apply([]graph.Edge{{Src: 4, Dst: 5, Weight: 1}, {Src: 5, Dst: 6, Weight: 1}}, nil)
			return ch, err
		}},
		{"delete shortcut and a base edge", func() (Change, error) {
			ch, _, _, err := g.Apply(nil, []graph.Edge{{Src: 2, Dst: 4}, {Src: 0, Dst: 3}})
			return ch, err
		}},
		{"delete the surviving inserts", func() (Change, error) {
			ch, _, _, err := g.Apply(nil, []graph.Edge{{Src: 4, Dst: 5}, {Src: 5, Dst: 6}})
			return ch, err
		}},
	}
	// graphs[e] and states[e] are the graph and its cold fixed point at
	// epoch e.
	graphs := []*graph.CSR{base}
	states := [][]float64{algorithms.Solve(base, mk()).Values}
	seen := map[Mode]int{}
	for i, step := range steps {
		epoch := uint64(i + 1)
		ch, err := step.run()
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if ch.Epoch != epoch || g.Epoch() != epoch {
			t.Fatalf("%s: change epoch %d, graph epoch %d, want %d", step.name, ch.Epoch, g.Epoch(), epoch)
		}
		want := algorithms.Solve(g.CSR(), mk()).Values
		graphs, states = append(graphs, g.CSR()), append(states, want)

		for k := uint64(1); k <= histMax+1 && k <= epoch; k++ {
			from := epoch - k
			b, added, removed, ok := g.Since(from)
			if k > histMax {
				if ok {
					t.Fatalf("%s: gap %d exceeds history %d but Since covered it", step.name, k, histMax)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: gap %d within history %d not covered", step.name, k, histMax)
			}
			if b != graphs[from] {
				t.Fatalf("%s: gap %d: base is not the epoch-%d graph", step.name, k, from)
			}
			alg, mode := Restart(mk(), b, g.CSR(), added, removed, states[from], 0.9)
			if (len(removed) == 0) != (mode == Warm) {
				t.Fatalf("%s: gap %d: mode %s with %d removed edges", step.name, k, mode, len(removed))
			}
			seen[mode]++
			exactMatch(t, step.name, algorithms.Solve(g.CSR(), alg).Values, want)
		}
	}
	if g.CSR().NumEdges() != base.NumEdges()-1 {
		t.Fatalf("after the deletes: %d edges, want the %d surviving base edges", g.CSR().NumEdges(), base.NumEdges()-1)
	}
	if seen[Warm] == 0 || seen[Cone] == 0 {
		t.Fatalf("modes exercised: %v — expected both warm paths", seen)
	}
	if _, _, _, ok := g.Since(g.Epoch()); ok {
		t.Fatal("Since(current epoch) reported a gap")
	}

	// An algorithm without insertion seeding solves an insert-only gap cold.
	ads := algorithms.NewAdsorption()
	if _, isSeeder := algorithms.Algorithm(ads).(algorithms.InsertionSeeder); isSeeder {
		t.Fatal("adsorption grew SeedInsertions; pick another non-seeder")
	}
	if _, mode := Restart(ads, base, graphs[1], []graph.Edge{{Src: 2, Dst: 4, Weight: 0.5}}, nil, states[0], 0); mode != Cold {
		t.Fatalf("non-seeder insert-only gap: mode %s, want cold", mode)
	}
}

// TestRejectedBatchLeavesGraphUntouched: a batch with one out-of-range
// edge or one negative or NaN weight is rejected before the graph is
// touched, so the next valid batch applies cleanly and re-converges onto
// the cold oracle.
func TestRejectedBatchLeavesGraphUntouched(t *testing.T) {
	base := mustGraph(t, 4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(0) }
	r := NewReplayer(base, mk, solveValues, 0)

	bad := []graph.Edge{{Src: 2, Dst: 3, Weight: 1}, {Src: 1, Dst: 9, Weight: 1}}
	if err := r.Apply(bad, nil); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if err := r.Apply(nil, []graph.Edge{{Src: 9, Dst: 0}}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	for _, w := range []float32{-1, float32(math.NaN())} {
		if err := r.Apply([]graph.Edge{{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 2, Weight: w}}, nil); err == nil {
			t.Fatalf("insert at weight %v accepted", w)
		}
		if _, err := r.g.ApplyExact(Change{Epoch: 1, Added: []graph.Edge{{Src: 3, Dst: 2, Weight: w}}}); err == nil {
			t.Fatalf("replayed insert at weight %v accepted", w)
		}
	}
	if r.Epoch != 0 || r.Graph() != base {
		t.Fatalf("rejected batches moved the graph: epoch %d", r.Epoch)
	}

	if err := r.Apply([]graph.Edge{{Src: 2, Dst: 3, Weight: 1}}, nil); err != nil {
		t.Fatalf("valid batch after a rejected one: %v", err)
	}
	if r.Epoch != 1 || r.Graph().NumEdges() != base.NumEdges()+1 {
		t.Fatalf("after valid batch: epoch %d, %d edges, want 1, %d", r.Epoch, r.Graph().NumEdges(), base.NumEdges()+1)
	}
	got, err := r.State()
	if err != nil {
		t.Fatal(err)
	}
	exactMatch(t, "after rejected batch", got, algorithms.Solve(r.Graph(), mk()).Values)
}
