package core

import (
	"context"
	"errors"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim"
)

// TestRunCanceled: a canceled context aborts the run with an error wrapping
// sim.ErrCanceled (not ErrDeadline, not a clean result).
func TestRunCanceled(t *testing.T) {
	g, err := gen.RMAT(*rmatTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(testConfigs()[0], g, algorithms.NewPageRankDelta())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.RunCtx(ctx); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
