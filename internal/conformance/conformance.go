// Package conformance is the repository's differential-testing subsystem:
// it runs any (graph, algorithm) pair through every engine — the textbook
// reference oracles, the algorithms.Solve worklist, the psolve sharded
// parallel solver, the GraphPulse accelerator model, the Graphicionado
// baseline, and the Ligra baseline — and asserts that they all converge to
// the same fixed point, within the single tolerance policy defined in this
// package (see Tolerance).
//
// The paper's evaluation (Section VI) compares only cycle counts across
// engines; that comparison is meaningful only if the engines are
// value-equivalent. This package is the standing correctness gate that
// makes the claim checkable: table-driven suites exercise a shapes ×
// algorithms matrix, metamorphic suites check relabeling/transpose/
// partitioning/incremental invariances, and native Go fuzz targets
// (FuzzEngineAgreement, FuzzGraphIORoundTrip, FuzzIncrementalInsert) search
// for divergence continuously.
//
// Engine-specific invariants ride along with every Verify call:
//
//   - event conservation in the accelerator (queue arrivals = emitted +
//     initial events; processed = arrivals - coalesced),
//   - cycle-count determinism (same config + graph ⇒ bit-identical Result,
//     run-to-run and under concurrent execution),
//   - the algebraic laws event coalescing relies on (CheckAlgebraicLaws).
package conformance

import (
	"fmt"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/core"
	"graphpulse/internal/graph"
	"graphpulse/internal/psolve"
)

// Engine is one way of driving an Algorithm over a graph to its fixed
// point. Run must be safe for concurrent use with distinct arguments.
type Engine struct {
	// Name labels the engine in failure messages ("accelerator").
	Name string
	// Run executes a fresh algorithm from mk over g and returns the
	// converged per-vertex values.
	Run func(g *graph.CSR, mk func() algorithms.Algorithm) ([]float64, error)
}

// EngineSolve wraps the sequential coalescing worklist (Algorithm 1 of the
// paper in software) — the golden model the other engines are held to.
func EngineSolve() Engine {
	return Engine{
		Name: "solve",
		Run: func(g *graph.CSR, mk func() algorithms.Algorithm) ([]float64, error) {
			return algorithms.Solve(g, mk()).Values, nil
		},
	}
}

// EngineAccelerator wraps the GraphPulse cycle model under cfg.
func EngineAccelerator(cfg core.Config) Engine {
	return Engine{
		Name: "accelerator[" + cfg.Name + "]",
		Run: func(g *graph.CSR, mk func() algorithms.Algorithm) ([]float64, error) {
			res, err := runAccelerator(cfg, g, mk())
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		},
	}
}

// EngineGraphicionado wraps the BSP hardware baseline under cfg.
func EngineGraphicionado(cfg graphicionado.Config) Engine {
	return Engine{
		Name: "graphicionado",
		Run: func(g *graph.CSR, mk func() algorithms.Algorithm) ([]float64, error) {
			res, err := graphicionado.Run(cfg, g, mk())
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		},
	}
}

// EngineLigra wraps the software baseline under cfg.
func EngineLigra(cfg ligra.Config) Engine {
	return Engine{
		Name: "ligra",
		Run: func(g *graph.CSR, mk func() algorithms.Algorithm) ([]float64, error) {
			return ligra.New(cfg, g).Run(mk()).Values, nil
		},
	}
}

// EnginePSolve wraps the sharded parallel worklist solver under cfg.
func EnginePSolve(cfg psolve.Config) Engine {
	return Engine{
		Name: fmt.Sprintf("psolve[w=%d]", cfg.Workers),
		Run: func(g *graph.CSR, mk func() algorithms.Algorithm) ([]float64, error) {
			res, err := psolve.SolveCtx(nil, g, mk(), cfg)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		},
	}
}

// AcceleratorConfig is the conformance-suite accelerator build: the paper's
// optimized design with the cycle deadline raised (tiny adversarial graphs
// such as long chains burn many rounds).
func AcceleratorConfig() core.Config {
	cfg := core.OptimizedConfig()
	cfg.MaxCycles = 1_000_000_000
	return cfg
}

// LigraConfig is the conformance-suite Ligra build: a small fixed worker
// count so heavily parallel test runs don't oversubscribe the host.
func LigraConfig() ligra.Config {
	cfg := ligra.DefaultConfig()
	cfg.Threads = 4
	return cfg
}

// PSolveConfig is the conformance-suite parallel-solver build: like
// LigraConfig, a small fixed shard count so heavily parallel test runs
// don't oversubscribe the host, while still exercising cross-shard
// exchange.
func PSolveConfig() psolve.Config {
	cfg := psolve.DefaultConfig()
	cfg.Workers = 4
	return cfg
}

// Engines returns the default engine set compared by Verify: the serial
// and parallel worklist solvers, the accelerator under its raised cycle
// deadline (with the event-conservation check), Graphicionado, and Ligra.
// Together with the reference oracle consulted by Verify itself, this
// covers all six implementations in the repository.
func Engines() []Engine {
	return []Engine{
		EngineSolve(),
		EnginePSolve(PSolveConfig()),
		EngineAccelerator(AcceleratorConfig()),
		EngineGraphicionado(graphicionado.DefaultConfig()),
		EngineLigra(LigraConfig()),
	}
}

// Options tunes Verify.
type Options struct {
	// Engines to run; nil means Engines().
	Engines []Engine
	// SkipLaws disables the algebraic-law check.
	SkipLaws bool
}

// Verify runs a fresh algorithm from mk over g on every engine and checks:
//
//  1. every engine's converged values agree with the reference oracle (or,
//     for algorithms without one, with the worklist solver) within
//     Tolerance;
//  2. the accelerator's event-flow counters balance (conservation;
//     applied to every accelerator engine run);
//  3. the algorithm satisfies the reduce laws coalescing relies on, probed
//     on values drawn from the converged state.
//
// Bit-level run-to-run determinism is checked separately by
// VerifyDeterminism, which must run the machine multiple times.
//
// It returns the first violation found, or nil.
func Verify(g *graph.CSR, mk func() algorithms.Algorithm, opts Options) error {
	engines := opts.Engines
	if engines == nil {
		engines = Engines()
	}
	alg := mk()
	want, haveOracle := algorithms.ReferenceSolution(g, alg)
	oracleName := "oracle"
	if !haveOracle {
		want = algorithms.Solve(g, mk()).Values
		oracleName = "solve"
	}
	tol := Tolerance(alg, g)
	if !opts.SkipLaws {
		if err := algorithms.CheckAlgebraicLaws(alg, lawSamples(alg, want)); err != nil {
			return err
		}
	}
	for _, e := range engines {
		got, err := e.Run(g, mk)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := CompareValues(fmt.Sprintf("%s vs %s on %s", e.Name, oracleName, alg.Name()), got, want, tol); err != nil {
			return err
		}
	}
	return nil
}

// VerifyEngine checks a single engine against the reference oracle (or the
// worklist solver) for one algorithm. Baseline packages use it so their
// oracle comparisons share this package's tolerance policy.
func VerifyEngine(e Engine, g *graph.CSR, mk func() algorithms.Algorithm) error {
	return Verify(g, mk, Options{Engines: []Engine{e}, SkipLaws: true})
}

// lawSamples builds a probe set for CheckAlgebraicLaws from the converged
// values: the identity, small constants, and a spread of actual fixed-point
// values, so the laws are tested on the domain the run really visited.
func lawSamples(alg algorithms.Algorithm, values []float64) []algorithms.Value {
	samples := []algorithms.Value{alg.Identity(), 0, 1, -1, 0.5}
	for i := 0; i < len(values) && len(samples) < 12; i += 1 + len(values)/8 {
		samples = append(samples, values[i])
	}
	return samples
}

// runAccelerator builds and runs one accelerator and applies the event-
// conservation invariant to its result. Determinism is checked separately
// by VerifyDeterminism, which needs to run the machine twice.
func runAccelerator(cfg core.Config, g *graph.CSR, alg algorithms.Algorithm) (*core.Result, error) {
	a, err := core.New(cfg, g, alg)
	if err != nil {
		return nil, err
	}
	res, err := a.Run()
	if err != nil {
		return nil, err
	}
	if err := CheckConservation(res, len(alg.InitialEvents(g))); err != nil {
		return nil, err
	}
	return res, nil
}

// CheckConservation verifies the accelerator's event-flow accounting: with
// clean termination (no global-progress early stop) every event inserted
// into a coalescing queue was either coalesced into a resident event or
// processed, and every queue arrival is accounted for by an emitted event,
// a re-inserted spill, or a bootstrap event:
//
//	Σ produced == emitted + initial        (spills re-enter on swap-in)
//	Σ produced - Σ coalesced == Σ processed
//	Σ processed == EventsProcessed
//	final round's Remaining == 0
//
// A violated balance means events were lost or double-delivered by the
// queue, crossbar, spill, or scheduler machinery — exactly the bug class
// that silently corrupts results.
func CheckConservation(res *core.Result, initialEvents int) error {
	if res.TerminatedGlobally {
		// The early-termination path deliberately drops sub-threshold
		// events, so the balances below do not apply.
		return nil
	}
	var produced, coalesced, processed int64
	for _, rs := range res.RoundLog {
		produced += rs.Produced
		coalesced += rs.Coalesced
		processed += rs.Processed
	}
	if got, want := produced, res.EventsEmitted+int64(initialEvents); got != want {
		return fmt.Errorf("conformance: conservation: produced %d != emitted %d + initial %d",
			got, res.EventsEmitted, initialEvents)
	}
	if got, want := produced-coalesced, processed; got != want {
		return fmt.Errorf("conformance: conservation: produced %d - coalesced %d != processed %d",
			produced, coalesced, want)
	}
	if processed != res.EventsProcessed {
		return fmt.Errorf("conformance: conservation: round log processed %d != counter %d",
			processed, res.EventsProcessed)
	}
	if n := len(res.RoundLog); n > 0 {
		if rem := res.RoundLog[n-1].Remaining; rem != 0 {
			return fmt.Errorf("conformance: conservation: %d events resident after final round", rem)
		}
	}
	return nil
}

// VerifyDeterminism runs the accelerator `runs` times over (cfg, g, mk) and
// requires bit-identical results: same Values, same cycle count, same event
// counters. The simulation has no hidden entropy, so any divergence is a
// nondeterminism bug (map iteration, uninitialized state, data races).
// Callers may invoke it from concurrently running tests; each call builds
// private accelerators.
func VerifyDeterminism(cfg core.Config, g *graph.CSR, mk func() algorithms.Algorithm, runs int) error {
	var first *core.Result
	for i := 0; i < runs; i++ {
		res, err := runAccelerator(cfg, g, mk())
		if err != nil {
			return err
		}
		if first == nil {
			first = res
			continue
		}
		if err := sameResult(first, res); err != nil {
			return fmt.Errorf("conformance: run %d differs from run 0: %w", i, err)
		}
	}
	return nil
}

// sameResult compares the deterministic fields of two accelerator results.
func sameResult(a, b *core.Result) error {
	if a.Cycles != b.Cycles {
		return fmt.Errorf("cycles %d != %d", a.Cycles, b.Cycles)
	}
	if a.Rounds != b.Rounds {
		return fmt.Errorf("rounds %d != %d", a.Rounds, b.Rounds)
	}
	if a.EventsProcessed != b.EventsProcessed || a.EventsEmitted != b.EventsEmitted ||
		a.EventsCoalesced != b.EventsCoalesced || a.SpilledEvents != b.SpilledEvents {
		return fmt.Errorf("event counters (%d,%d,%d,%d) != (%d,%d,%d,%d)",
			a.EventsProcessed, a.EventsEmitted, a.EventsCoalesced, a.SpilledEvents,
			b.EventsProcessed, b.EventsEmitted, b.EventsCoalesced, b.SpilledEvents)
	}
	if a.MemReads != b.MemReads || a.MemWrites != b.MemWrites {
		return fmt.Errorf("memory traffic (%d,%d) != (%d,%d)", a.MemReads, a.MemWrites, b.MemReads, b.MemWrites)
	}
	return CompareValues("determinism", a.Values, b.Values, 0)
}
