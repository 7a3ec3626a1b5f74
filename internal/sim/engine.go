// Package sim provides the cycle-level simulation engine every hardware
// model in this repository runs on: a synchronous tick loop over clocked
// components, with a cycle counter and run-control helpers.
//
// The abstraction level matches the paper's methodology (Structural
// Simulation Toolkit): components are structural blocks exchanging work
// through explicit buffers, advanced one clock edge at a time. At the
// modeled 1 GHz, one tick is one nanosecond.
//
// End-of-run counts are plain fields of the model that increments them
// (mem.Counters, core.Result). The subpackage sim/telemetry adds the
// time-resolved view: a sampling recorder that is itself a Component —
// register it last so it observes end-of-cycle state — capturing probe
// values every N cycles into bounded time series. METRICS.md at the
// repository root documents every metric name.
package sim

import (
	"context"
	"errors"
	"fmt"
)

// Component is a clocked hardware block. Tick advances it by one cycle; the
// engine calls every component once per cycle in registration order.
// Components must communicate only through explicit latched state so that
// registration order does not change results (register upstream blocks
// first to model same-cycle forwarding where intended).
type Component interface {
	// Name identifies the component in reports.
	Name() string
	// Tick advances the component one clock cycle.
	Tick(cycle uint64)
}

// Engine drives a set of components with a shared clock.
type Engine struct {
	components []Component
	cycle      uint64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Register appends a component to the tick order.
func (e *Engine) Register(c Component) { e.components = append(e.components, c) }

// Cycle returns the number of cycles executed so far.
func (e *Engine) Cycle() uint64 { return e.cycle }

// Step advances the simulation by exactly one cycle.
func (e *Engine) Step() {
	for _, c := range e.components {
		c.Tick(e.cycle)
	}
	e.cycle++
}

// ErrDeadline is returned by RunUntil when maxCycles elapses before done().
var ErrDeadline = errors.New("sim: cycle deadline exceeded")

// ErrCanceled is returned by RunUntil when the supplied context is canceled
// (wall-clock timeout or interrupt) before the simulation completes.
var ErrCanceled = errors.New("sim: run canceled")

// ctxPollInterval is how many cycles elapse between context checks: a
// non-blocking select per cycle would dominate the tick loop, and a
// millisecond-scale timeout never needs finer granularity.
const ctxPollInterval = 1024

// RunUntil steps the clock until done() returns true, checking done before
// each cycle. It fails with ErrDeadline after maxCycles to convert hangs
// (a scheduling bug, a lost event) into diagnosable errors instead of
// wedged simulations, and with ErrCanceled when ctx is canceled — the
// wall-clock analogue, checked every ctxPollInterval cycles. A nil ctx
// disables cancellation.
func (e *Engine) RunUntil(ctx context.Context, done func() bool, maxCycles uint64) error {
	start := e.cycle
	for !done() {
		if e.cycle-start >= maxCycles {
			return fmt.Errorf("%w (ran %d cycles, %d components)", ErrDeadline, e.cycle-start, len(e.components))
		}
		if ctx != nil && (e.cycle-start)%ctxPollInterval == 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("%w after %d cycles: %v", ErrCanceled, e.cycle-start, ctx.Err())
			default:
			}
		}
		e.Step()
	}
	return nil
}

// SecondsAt converts the elapsed cycle count to seconds at the given clock
// frequency in Hz (the paper's accelerator runs at 1 GHz).
func (e *Engine) SecondsAt(hz float64) float64 { return float64(e.cycle) / hz }
