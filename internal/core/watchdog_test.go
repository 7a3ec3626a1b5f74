package core

import (
	"errors"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// loseOneEvent steps the clock past the first watchdog interval until the
// crossbar holds an event, then removes exactly that one event: the loss a
// generation, coalescing or spilling bug would cause.
func loseOneEvent(t *testing.T, a *Accelerator) {
	t.Helper()
	for a.engine.Cycle() < testConfigs()[0].MaxCycles {
		a.engine.Step()
		if a.engine.Cycle() <= defaultWatchdogInterval {
			continue
		}
		if q := a.xbar.queue; len(q) > 0 {
			a.xbar.queue = q[1:]
			return
		}
	}
	t.Fatal("no crossbar ever held an event after the first watchdog interval")
}

// assertLostOne checks that err is the watchdog's report of one vanished
// event, raised before the run's deadline; a periodic trip must come while
// the machine still holds events, not from the final audit.
func assertLostOne(t *testing.T, err error, audit string) {
	t.Helper()
	if !errors.Is(err, ErrConservation) {
		t.Fatalf("err = %v, want one wrapping ErrConservation", err)
	}
	var ce *ConservationError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v carries no *ConservationError", err)
	}
	if ce.Imbalance != 1 {
		t.Errorf("Imbalance = %+d, want +1 (one event vanished)", ce.Imbalance)
	}
	if ce.Cycle >= testConfigs()[0].MaxCycles {
		t.Errorf("detected at cycle %d, not before MaxCycles %d", ce.Cycle, testConfigs()[0].MaxCycles)
	}
	if audit == "periodic" && ce.Resident.Total() == 0 {
		t.Errorf("tripped at cycle %d with nothing resident: the final audit, not a periodic one", ce.Cycle)
	}
}

// lossAlgorithms are the two ways a lost event surfaces: PageRank is still
// running three audits after the loss, so the periodic watchdog trips; SSSP
// finishes first, so the final audit at termination does.
func lossAlgorithms(g *graph.CSR) map[string]algorithms.Algorithm {
	return map[string]algorithms.Algorithm{
		"periodic": algorithms.NewPageRankDelta(),
		"final":    algorithms.NewSSSP(graph.BestRoot(g)),
	}
}

// TestWatchdogDetectsLostEvent: one event removed from the accelerator's
// delivery network mid-run fails the run with ErrConservation instead of a
// clean result or a wedge until MaxCycles.
func TestWatchdogDetectsLostEvent(t *testing.T) {
	g, err := gen.RMAT(*rmatTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	for audit, alg := range lossAlgorithms(g) {
		t.Run(audit, func(t *testing.T) {
			a, err := New(testConfigs()[0], g, alg)
			if err != nil {
				t.Fatal(err)
			}
			loseOneEvent(t, a)
			_, err = a.Run()
			assertLostOne(t, err, audit)
		})
	}
}
