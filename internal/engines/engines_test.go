package engines_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/engines"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim"
)

func TestNormalize(t *testing.T) {
	if got, err := engines.Normalize(""); err != nil || got != engines.Solve {
		t.Errorf("Normalize(\"\") = %q, %v; want solve default", got, err)
	}
	for _, n := range engines.Names() {
		if got, err := engines.Normalize(n); err != nil || got != n {
			t.Errorf("Normalize(%q) = %q, %v", n, got, err)
		}
	}
	_, err := engines.Normalize("warp-drive")
	if err == nil {
		t.Fatal("Normalize accepted an unknown engine")
	}
	if !strings.Contains(err.Error(), engines.NamesList()) {
		t.Errorf("error %q does not enumerate the registry %q", err, engines.NamesList())
	}
	for _, n := range []string{"accel", "graphicionado", "ligra"} {
		if _, err := engines.Normalize(n); err == nil || !strings.Contains(err.Error(), "cmd/graphpulse -engine") {
			t.Errorf("Normalize(%q) error = %v, want a pointer at cmd/graphpulse -engine", n, err)
		}
	}
}

func TestLookupNamesRoundTrip(t *testing.T) {
	for _, n := range engines.Names() {
		eng, err := engines.Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if eng.Name() != n {
			t.Errorf("Lookup(%q).Name() = %q", n, eng.Name())
		}
	}
	if _, err := engines.Lookup("warp-drive"); err == nil {
		t.Error("Lookup accepted an unknown engine")
	}
}

// TestEveryEngineSolves drives one tiny SSSP through every registry engine;
// SSSP is monotone, so all engines must agree with the serial solver
// bit-for-bit. (The full shape x algorithm matrix lives in
// internal/conformance; this pins the adapters.)
func TestEveryEngineSolves(t *testing.T) {
	g, err := gen.Chain(24, true)
	if err != nil {
		t.Fatal(err)
	}
	alg := algorithms.NewSSSP(0)
	want := algorithms.Solve(g, alg)
	for _, n := range engines.Names() {
		eng, err := engines.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.SolveCtx(nil, g, algorithms.NewSSSP(0))
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(res.Values) != len(want.Values) {
			t.Fatalf("%s: %d values, want %d", n, len(res.Values), len(want.Values))
		}
		for v := range want.Values {
			if res.Values[v] != want.Values[v] {
				t.Errorf("%s: vertex %d = %g, want %g", n, v, res.Values[v], want.Values[v])
			}
		}
		if res.Activations <= 0 {
			t.Errorf("%s: Activations = %d, want > 0", n, res.Activations)
		}
	}
}

// TestCancellationContract: every engine must surface a canceled context as
// an error wrapping sim.ErrCanceled — the property the serving tier's
// deadline handling relies on.
func TestCancellationContract(t *testing.T) {
	g, err := gen.ErdosRenyi(256, 2048, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range engines.Names() {
		eng, err := engines.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.SolveCtx(ctx, g, algorithms.NewPageRankDelta())
		if !errors.Is(err, sim.ErrCanceled) {
			t.Errorf("%s: err = %v, want sim.ErrCanceled", n, err)
		}
	}
}
