// Package engines wraps the serial solver behind an interface. No package
// of this module imports it. It stays only for the benchmark module's
// engines.dispatch_overhead_us row (perf/wl_cold.go times a solve through
// Lookup beside a direct algorithms.SolveCtx call), and it goes with that
// row (ROADMAP 1(c)). /v1/query calls algorithms.SolveCtx directly.
package engines

import (
	"context"
	"fmt"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// Solve is the one engine's name: the serial worklist solver.
const Solve = "solve"

// Engine drives an Algorithm over a graph to its fixed point. SolveCtx
// must be safe for concurrent use with distinct arguments and must honor
// the repository's cancellation contract (errors wrap sim.ErrCanceled).
type Engine interface {
	// SolveCtx runs alg over g to convergence. Activations carries the
	// number of vertex updates; Emitted counts propagated deltas.
	SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error)
}

// Lookup resolves an engine name; Solve is the only one.
func Lookup(name string) (Engine, error) {
	if name != Solve {
		return nil, fmt.Errorf("unknown engine %q (want %s)", name, Solve)
	}
	return solveEngine{}, nil
}

type solveEngine struct{}

func (solveEngine) SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error) {
	return algorithms.SolveCtx(ctx, g, alg)
}
