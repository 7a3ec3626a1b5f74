// Package engines is the repository's engine registry: one canonical list
// of the ways a delta-accumulative algorithm can be driven to its fixed
// point, behind a single interface. The serving tier, the conformance suite
// and the benchmark driver all resolve engine names here instead of
// maintaining their own switch statements, so adding an engine is one
// registry entry — not a sweep across layers.
//
// Five engines are registered:
//
//	solve          sequential coalescing worklist (the golden model)
//	psolve         sharded parallel worklist (internal/psolve)
//	accel          GraphPulse accelerator cycle model (internal/core)
//	graphicionado  BSP hardware baseline simulation
//	ligra          Ligra-style shared-memory software baseline
//
// Every engine implements SolveCtx(ctx, g, alg) with the repository's
// uniform cancellation contract: context cancellation surfaces as an error
// wrapping sim.ErrCanceled.
package engines

import (
	"context"
	"fmt"
	"strings"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/core"
	"graphpulse/internal/graph"
	"graphpulse/internal/psolve"
)

// Canonical engine names. These strings are the wire/CLI vocabulary:
// /v1/query's engine field and loadgen's -engine flag validate against them
// through Normalize.
const (
	Solve         = "solve"
	PSolve        = "psolve"
	Accel         = "accel"
	Graphicionado = "graphicionado"
	Ligra         = "ligra"
)

// Names returns every registered engine name in canonical order.
func Names() []string {
	return []string{Solve, PSolve, Accel, Graphicionado, Ligra}
}

// NamesList renders the registry vocabulary for error messages and flag
// docs ("solve|psolve|accel|graphicionado|ligra").
func NamesList() string {
	return strings.Join(Names(), "|")
}

// Normalize validates an engine name, mapping the empty string to the
// default engine (the serial solver). The error message enumerates the
// registry, so it never goes stale against the engine set.
func Normalize(name string) (string, error) {
	if name == "" {
		return Solve, nil
	}
	for _, n := range Names() {
		if name == n {
			return name, nil
		}
	}
	return "", fmt.Errorf("unknown engine %q (want %s)", name, NamesList())
}

// Engine drives an Algorithm over a graph to its fixed point. SolveCtx
// must be safe for concurrent use with distinct arguments and must honor
// the repository's cancellation contract (errors wrap sim.ErrCanceled).
type Engine interface {
	// Name returns the engine's registry name.
	Name() string
	// SolveCtx runs alg over g to convergence. Activations carries the
	// engine's primary work counter (vertex updates for the native solvers,
	// events processed for the accelerator, edges traversed for the BSP
	// baselines); Emitted counts propagated deltas where the engine tracks
	// them.
	SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error)
}

// Lookup resolves a registry name to its Engine. Every engine runs with its
// documented default tuning (psolve.DefaultConfig, core.OptimizedConfig,
// graphicionado.DefaultConfig, ligra.DefaultConfig). The name must be
// canonical (pass user input through Normalize first).
func Lookup(name string) (Engine, error) {
	switch name {
	case Solve:
		return solveEngine{}, nil
	case PSolve:
		return psolveEngine{}, nil
	case Accel:
		return accelEngine{}, nil
	case Graphicionado:
		return graphicionadoEngine{}, nil
	case Ligra:
		return ligraEngine{}, nil
	}
	return nil, fmt.Errorf("unknown engine %q (want %s)", name, NamesList())
}

type solveEngine struct{}

func (solveEngine) Name() string { return Solve }

func (solveEngine) SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error) {
	return algorithms.SolveCtx(ctx, g, alg)
}

type psolveEngine struct{}

func (psolveEngine) Name() string { return PSolve }

func (psolveEngine) SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error) {
	res, err := psolve.SolveCtx(ctx, g, alg, psolve.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &algorithms.SolveResult{
		Values:      res.Values,
		Activations: res.Activations,
		Emitted:     res.Emitted,
	}, nil
}

type accelEngine struct{}

func (accelEngine) Name() string { return Accel }

func (accelEngine) SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error) {
	a, err := core.New(core.OptimizedConfig(), g, alg)
	if err != nil {
		return nil, err
	}
	res, err := a.RunWithOptions(core.RunOptions{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return &algorithms.SolveResult{
		Values:      res.Values,
		Activations: res.EventsProcessed,
		Emitted:     res.EventsEmitted,
	}, nil
}

type graphicionadoEngine struct{}

func (graphicionadoEngine) Name() string { return Graphicionado }

func (graphicionadoEngine) SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error) {
	res, err := graphicionado.RunCtx(ctx, graphicionado.DefaultConfig(), g, alg)
	if err != nil {
		return nil, err
	}
	return &algorithms.SolveResult{
		Values:      res.Values,
		Activations: res.EdgesTraversed,
	}, nil
}

type ligraEngine struct{}

func (ligraEngine) Name() string { return Ligra }

func (ligraEngine) SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error) {
	res, err := ligra.New(ligra.DefaultConfig(), g).RunCtx(ctx, alg)
	if err != nil {
		return nil, err
	}
	return &algorithms.SolveResult{
		Values:      res.Values,
		Activations: res.VertexUpdates,
		Emitted:     res.EdgesTraversed,
	}, nil
}
