package engines_test

import (
	"context"
	"errors"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/engines"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim"
)

// TestEveryEngineSolves drives one tiny SSSP through the solve engine,
// which must agree with the serial solver bit-for-bit, and checks that
// Lookup refuses every other name, psolve included.
func TestEveryEngineSolves(t *testing.T) {
	g, err := gen.Chain(24, true)
	if err != nil {
		t.Fatal(err)
	}
	alg := algorithms.NewSSSP(0)
	want := algorithms.Solve(g, alg)
	eng, err := engines.Lookup(engines.Solve)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SolveCtx(nil, g, algorithms.NewSSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != len(want.Values) {
		t.Fatalf("%d values, want %d", len(res.Values), len(want.Values))
	}
	for v := range want.Values {
		if res.Values[v] != want.Values[v] {
			t.Errorf("vertex %d = %g, want %g", v, res.Values[v], want.Values[v])
		}
	}
	if res.Activations <= 0 {
		t.Errorf("Activations = %d, want > 0", res.Activations)
	}
	for _, n := range []string{"", "psolve", "warp-drive"} {
		if _, err := engines.Lookup(n); err == nil {
			t.Errorf("Lookup(%q) accepted", n)
		}
	}
}

// TestCancellationContract: the engine must surface a canceled context as
// an error wrapping sim.ErrCanceled.
func TestCancellationContract(t *testing.T) {
	g, err := gen.ErdosRenyi(256, 2048, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := engines.Lookup(engines.Solve)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SolveCtx(ctx, g, algorithms.NewPageRankDelta()); !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("err = %v, want sim.ErrCanceled", err)
	}
}
