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
	if _, err := a.RunWithOptions(RunOptions{Ctx: ctx}); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestClusterCanceled: cancellation propagates through every chip engine.
func TestClusterCanceled(t *testing.T) {
	g, err := gen.RMAT(*rmatTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(clusterConfig(3), g, algorithms.NewPageRankDelta())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.RunCtx(ctx); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestClusterDeadline: a cluster that cannot finish within Chip.MaxCycles
// reports sim.ErrDeadline rather than wedging.
func TestClusterDeadline(t *testing.T) {
	g, err := gen.RMAT(*rmatTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(3)
	cfg.Chip.MaxCycles = 500
	cl, err := NewCluster(cfg, g, algorithms.NewSSSP(hubRoot(g)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); !errors.Is(err, sim.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}
