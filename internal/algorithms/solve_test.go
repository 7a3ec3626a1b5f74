package algorithms_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim"
)

// freshSolveEnv names the one hygiene step a child process of
// TestSolveLeavesNoStateBehind solves and fingerprints.
const freshSolveEnv = "GRAPHPULSE_FRESH_SOLVE"

// hygieneStep is one solve of TestSolveLeavesNoStateBehind's sequence.
type hygieneStep struct {
	name string
	// canceled steps solve under a context canceled before the first
	// activation, leaving their pending deltas mid-flight.
	canceled bool
	prepare  func(t *testing.T) (graph.Adjacency, algorithms.Algorithm)
}

func hygieneSteps() []hygieneStep {
	wg := func(t *testing.T, tier gen.Tier) *graph.CSR {
		spec, err := gen.DatasetByAbbrev("WG")
		if err != nil {
			t.Fatal(err)
		}
		g, err := spec.Generate(tier)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	byName := func(t *testing.T, name string) algorithms.Algorithm {
		alg, err := algorithms.ByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	on := func(g func(*testing.T) graph.Adjacency, alg string) func(*testing.T) (graph.Adjacency, algorithms.Algorithm) {
		return func(t *testing.T) (graph.Adjacency, algorithms.Algorithm) { return g(t), byName(t, alg) }
	}
	tiny := func(t *testing.T) graph.Adjacency { return wg(t, gen.Tiny) }
	mini := func(t *testing.T) graph.Adjacency { return wg(t, gen.Mini) }
	grid := func(t *testing.T) graph.Adjacency {
		g, err := gen.Grid2D(48, 48, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []hygieneStep{
		{name: "pr/tiny", prepare: on(tiny, "pr")},
		{name: "pr/mini/canceled", canceled: true, prepare: on(mini, "pr")},
		{name: "sssp/grid", prepare: on(grid, "sssp")},
		{name: "cc/tiny", prepare: on(tiny, "cc")},
		{name: "sssp/mini/canceled", canceled: true, prepare: on(mini, "sssp")},
		{name: "bfs/tiny/reference", prepare: func(t *testing.T) (graph.Adjacency, algorithms.Algorithm) {
			return tiny(t), opaque{byName(t, "bfs")}
		}},
		{name: "pr/tiny/warm", prepare: func(t *testing.T) (graph.Adjacency, algorithms.Algorithm) {
			old := wg(t, gen.Tiny)
			alg := byName(t, "pr")
			g, warm, err := algorithms.IncrementalAfterInsert(alg, old,
				[]graph.Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 7, Dst: 3000, Weight: 1}}, algorithms.Solve(old, alg).Values)
			if err != nil {
				t.Fatal(err)
			}
			return g, warm
		}},
		{name: "cc/grid", prepare: on(grid, "cc")},
	}
}

// fingerprint hashes a solve's value bits, activations and emitted deltas.
func fingerprint(res *algorithms.SolveResult) string {
	h := fnv.New64a()
	for _, v := range res.Values {
		fmt.Fprintf(h, "%016x", math.Float64bits(v))
	}
	return fmt.Sprintf("%016x/%d/%d", h.Sum64(), res.Activations, res.Emitted)
}

// TestSolveLeavesNoStateBehind: the solver recycles its pending-delta
// array across solves, so a solve must not see what an earlier one left
// there. Solves of different algorithms on graphs of different sizes,
// with solves canceled mid-flight between them, each equal bit for bit
// the same solve run first thing in a fresh process (this test binary,
// re-run with freshSolveEnv naming the step).
func TestSolveLeavesNoStateBehind(t *testing.T) {
	steps := hygieneSteps()
	if name := os.Getenv(freshSolveEnv); name != "" {
		for _, st := range steps {
			if st.name == name {
				g, alg := st.prepare(t)
				fmt.Printf("fingerprint %s\n", fingerprint(algorithms.Solve(g, alg)))
				return
			}
		}
		t.Fatalf("no hygiene step %q", name)
	}
	for _, st := range steps {
		g, alg := st.prepare(t)
		if st.canceled {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := algorithms.SolveCtx(ctx, g, alg); !errors.Is(err, sim.ErrCanceled) {
				t.Fatalf("%s: err %v, want sim.ErrCanceled", st.name, err)
			}
			continue
		}
		got := fingerprint(algorithms.Solve(g, alg))
		cmd := exec.Command(os.Args[0], "-test.run=^TestSolveLeavesNoStateBehind$")
		cmd.Env = append(os.Environ(), freshSolveEnv+"="+st.name)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: fresh process: %v\n%s", st.name, err, out)
		}
		_, fresh, ok := strings.Cut(string(out), "fingerprint ")
		if !ok {
			t.Fatalf("%s: fresh process printed no fingerprint:\n%s", st.name, out)
		}
		if fresh, _, _ = strings.Cut(fresh, "\n"); got != fresh {
			t.Errorf("%s: %s after the earlier solves, %s in a fresh process", st.name, got, fresh)
		}
	}
}
