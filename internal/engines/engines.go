// Package engines is the set of engines a /v1/query can run on, behind a
// single interface. Two are registered:
//
//	solve   sequential coalescing worklist (the golden model)
//	psolve  sharded parallel worklist (internal/psolve)
//
// The cycle simulators and the Ligra baseline answer in simulated cycles
// and traffic, which a query response does not carry; they run under
// cmd/graphpulse -engine and cmd/bench instead.
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
	"graphpulse/internal/graph"
	"graphpulse/internal/psolve"
)

// Canonical engine names: the vocabulary /v1/query's engine field
// validates against through Normalize.
const (
	Solve  = "solve"
	PSolve = "psolve"
)

// Names returns every registered engine name in canonical order.
func Names() []string {
	return []string{Solve, PSolve}
}

// NamesList renders the registry vocabulary for error messages
// ("solve|psolve").
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
	return "", fmt.Errorf("unknown engine %q (want %s; the simulators and Ligra run under cmd/graphpulse -engine)", name, NamesList())
}

// Engine drives an Algorithm over a graph to its fixed point. SolveCtx
// must be safe for concurrent use with distinct arguments and must honor
// the repository's cancellation contract (errors wrap sim.ErrCanceled).
type Engine interface {
	// Name returns the engine's registry name.
	Name() string
	// SolveCtx runs alg over g to convergence. Activations carries the
	// number of vertex updates; Emitted counts propagated deltas.
	SolveCtx(ctx context.Context, g graph.Adjacency, alg algorithms.Algorithm) (*algorithms.SolveResult, error)
}

// Lookup resolves a registry name to its Engine; psolve runs with
// psolve.DefaultConfig. The name must be canonical (pass user input
// through Normalize first).
func Lookup(name string) (Engine, error) {
	switch name {
	case Solve:
		return solveEngine{}, nil
	case PSolve:
		return psolveEngine{}, nil
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
