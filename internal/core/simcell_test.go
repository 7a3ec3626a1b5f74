package core

import (
	"runtime"
	"testing"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// simCellGraph is the sim-sweep benchmark's graph: the LiveJournal-shape
// tiny RMAT at seed 1, generated the way perf/ derives its seed, so the
// cycle counts here are the ones BENCHMARK.json tracks.
func simCellGraph(tb testing.TB) (*graph.CSR, graph.VertexID) {
	tb.Helper()
	d, err := gen.DatasetByAbbrev("LJ")
	if err != nil {
		tb.Fatal(err)
	}
	seed := int64(1)
	for _, c := range d.Abbrev {
		seed = seed*131 + int64(c)
	}
	b := (1 - d.Skew - 0.05) / 2
	g, err := gen.RMAT(gen.RMATParams{
		A: d.Skew, B: b, C: b, D: 0.05,
		Scale: d.Scale(gen.Tiny), EdgeFactor: d.EdgeFactor,
		Weighted: true, Seed: seed*131 + int64(gen.Tiny), NoiseAmount: 0.1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g, hubRoot(g)
}

// BenchmarkSimCell runs sim-sweep's cell once per iteration: PageRank-delta
// and SSSP on the optimized GraphPulse model and on Graphicionado. It
// reports the GraphPulse model's host cost per processed event and per
// simulated cycle, and its heap allocations per event.
func BenchmarkSimCell(b *testing.B) {
	g, root := simCellGraph(b)
	algs := []func() algorithms.Algorithm{
		func() algorithms.Algorithm { return algorithms.NewPageRankDelta() },
		func() algorithms.Algorithm { return algorithms.NewSSSP(root) },
	}
	var accelTime time.Duration
	var events, cycles int64
	var mallocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mk := range algs {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := time.Now()
			a, err := New(OptimizedConfig(), g, mk())
			if err != nil {
				b.Fatal(err)
			}
			res, err := a.Run()
			if err != nil {
				b.Fatal(err)
			}
			accelTime += time.Since(start)
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
			events += res.EventsProcessed
			cycles += int64(res.Cycles)
			if _, err := graphicionado.Run(graphicionado.DefaultConfig(), g, mk()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(accelTime.Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
	b.ReportMetric(float64(accelTime.Nanoseconds())/float64(cycles), "ns/cycle")
}

// TestSimulatorAllocationBudget keeps heap traffic out of the simulators'
// hot paths: a whole run, setup included, may allocate at most one object
// per two processed events in GraphPulse and one per ten DRAM lines in
// Graphicionado. A closure, map insert or work item per event or line
// breaks it.
func TestSimulatorAllocationBudget(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	perRun := testing.AllocsPerRun(2, func() {
		res := run(t, OptimizedConfig(), g, algorithms.NewPageRankDelta())
		events = res.EventsProcessed
	})
	if got := perRun / float64(events); got > 0.5 {
		t.Errorf("GraphPulse allocates %.2f objects per processed event (%.0f per run, %d events), budget 0.5",
			got, perRun, events)
	}

	var lines int64
	perRun = testing.AllocsPerRun(2, func() {
		res, err := graphicionado.Run(graphicionado.DefaultConfig(), g, algorithms.NewPageRankDelta())
		if err != nil {
			t.Fatal(err)
		}
		lines = res.OffChipAccesses()
	})
	if got := perRun / float64(lines); got > 0.1 {
		t.Errorf("Graphicionado allocates %.2f objects per DRAM line (%.0f per run, %d lines), budget 0.1",
			got, perRun, lines)
	}
}
