package core

import (
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// TestSleepingUnitsAreCreditedEveryCycle checks the bulk-credit invariant
// of unit sleep: however a unit's cycles were spent ticking or asleep,
// each processor's state histogram sums to the run's cycles and each
// generation stream's share of its unit's histogram does too. A wake that
// misses its skipped cycles, or credits them twice, breaks the sums.
func TestSleepingUnitsAreCreditedEveryCycle(t *testing.T) {
	g, err := gen.RMAT(*rmatTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	sliced := OptimizedConfig()
	sliced.Name = "sliced"
	sliced.QueueCapacity = g.NumVertices() / 4
	algs := []func() algorithms.Algorithm{
		func() algorithms.Algorithm { return algorithms.NewPageRankDelta() },
		func() algorithms.Algorithm { return algorithms.NewSSSP(graph.BestRoot(g)) },
	}
	for _, cfg := range []Config{OptimizedConfig(), BaselineConfig(), sliced} {
		for _, mk := range algs {
			alg := mk()
			a, err := New(cfg, g, alg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, alg.Name(), err)
			}
			cycles := int64(res.Cycles)
			var procs, gens int64
			for _, p := range a.procs {
				for _, c := range p.stateHist {
					procs += c
				}
			}
			streams := int64(0)
			for _, u := range a.gens {
				streams += int64(len(u.streams))
				for _, c := range u.stateHist {
					gens += c
				}
			}
			if want := int64(len(a.procs)) * cycles; procs != want {
				t.Errorf("%s/%s: processor states sum to %d, want %d processors × %d cycles = %d",
					cfg.Name, alg.Name(), procs, len(a.procs), cycles, want)
			}
			if want := streams * cycles; gens != want {
				t.Errorf("%s/%s: generation states sum to %d, want %d streams × %d cycles = %d",
					cfg.Name, alg.Name(), gens, streams, cycles, want)
			}
		}
	}
}
