package core

import (
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph/gen"
)

func TestDebugSmoke(t *testing.T) {
	g, err := gen.Chain(10, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := OptimizedConfig()
	cfg.MaxCycles = 200_000
	a, err := New(cfg, g, algorithms.NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	for a.phase != phaseDone && a.engine.Cycle() < cfg.MaxCycles {
		a.engine.Step()
		if a.engine.Cycle()%10_000 == 0 {
			t.Logf("cycle=%d phase=%d pop=%d staging=%d xbar=%d proc0idle=%v pending=%d avail=%d memPending=%d fetchPend=%d",
				a.engine.Cycle(), a.phase, a.queue.population, len(a.staging),
				len(a.xbar.queue), a.procs[0].idle(), len(a.pendingInserts), a.availInserts,
				a.memory.Pending(), a.fetch.PendingLines())
		}
	}
	t.Logf("final cycle=%d phase=%d processed=%d", a.engine.Cycle(), a.phase, a.eventsProcessed)
	if a.phase != phaseDone {
		for i, p := range a.procs {
			if !p.idle() {
				t.Logf("proc %d: input=%d stalled=%v generating=%v directIssued=%v", i, p.input.Len(), p.stalled, p.generating, p.directIssued)
			}
		}
		t.Fatal("did not terminate")
	}
}
