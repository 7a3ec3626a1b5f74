package stream

import (
	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// SolveFunc runs one algorithm over one graph to its fixed point — the
// engine under test (serial Solve, psolve, …) adapted to a plain function
// so the Replayer stays engine-agnostic.
type SolveFunc func(g *graph.CSR, alg algorithms.Algorithm) ([]float64, error)

// Replayer drives one (algorithm, engine) pair through a mutation
// sequence on the serving tier's own state machine: a Graph applies each
// batch, and the state converged at the previous epoch is carried forward
// by Since + Restart, exactly as a query after a mutation is. Differential
// tests compare State() against a cold solve of Graph() after every
// epoch.
//
// A Replayer is single-writer and not concurrency-safe.
type Replayer struct {
	mk          func() algorithms.Algorithm
	solve       SolveFunc
	maxConeFrac float64

	g     *Graph
	state []float64

	// Epoch is the graph epoch State() is converged at (0 = the base
	// graph).
	Epoch uint64
	// SeedStarts, ConeStarts, Replays count the epochs re-converged by
	// insertion seeding, by the deletion cone, and from scratch; LastMode
	// names the most recent choice.
	SeedStarts, ConeStarts, Replays int
	LastMode                        Mode
}

// NewReplayer builds a Replayer over base. maxConeFrac ≤ 0 selects
// DefaultMaxConeFraction.
func NewReplayer(base *graph.CSR, mk func() algorithms.Algorithm, solve SolveFunc, maxConeFrac float64) *Replayer {
	return &Replayer{mk: mk, solve: solve, maxConeFrac: maxConeFrac, g: NewGraph(base, 1)}
}

// Graph returns the current materialized graph.
func (r *Replayer) Graph() *graph.CSR { return r.g.CSR() }

// State returns the converged per-vertex values for the current epoch,
// cold-solving lazily on first use. Callers must not modify the slice.
func (r *Replayer) State() ([]float64, error) {
	if r.state == nil {
		vals, err := r.solve(r.g.CSR(), r.mk())
		if err != nil {
			return nil, err
		}
		r.state, r.LastMode = vals, Cold
	}
	return r.state, nil
}

// Apply ingests one mutation epoch (see Graph.Apply) and re-converges. A
// rejected batch changes nothing; a batch with no effect burns no epoch.
func (r *Replayer) Apply(ins, dels []graph.Edge) error {
	if _, err := r.State(); err != nil {
		return err
	}
	ch, _, _, err := r.g.Apply(ins, dels)
	if err != nil || ch.Epoch == 0 {
		return err
	}
	alg, mode := r.mk(), Cold
	if base, added, removed, ok := r.g.Since(r.Epoch); ok {
		alg, mode = Restart(alg, base, r.g.CSR(), added, removed, r.state, r.maxConeFrac)
	}
	vals, err := r.solve(r.g.CSR(), alg)
	if err != nil {
		return err
	}
	r.state, r.Epoch, r.LastMode = vals, ch.Epoch, mode
	switch mode {
	case Warm:
		r.SeedStarts++
	case Cone:
		r.ConeStarts++
	default:
		r.Replays++
	}
	return nil
}
