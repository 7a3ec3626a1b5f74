// Benchmarks regenerating the paper's evaluation artifacts — one benchmark
// per table and figure, at the tiny workload tier so `go test -bench=.`
// completes in minutes. The cmd/bench tool runs the same experiments at
// larger tiers and prints the full tables; EXPERIMENTS.md records
// paper-vs-measured values.
//
// Benchmarks report paper metrics through b.ReportMetric (speedup-x,
// coalesce-pct, utilization, …) alongside the usual ns/op of regenerating
// the artifact.
package graphpulse_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/bench"
	"graphpulse/internal/core"
	"graphpulse/internal/energy"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/mem"
)

// benchOptions is the shared experiment configuration: the LJ-class
// workload at tiny tier (the dataset Figures 4 and 8 use), all algorithms.
func benchOptions() bench.Options {
	return bench.Options{
		Tier:     gen.Tiny,
		Datasets: []string{"LJ"},
		Out:      io.Discard,
	}
}

// ljPR returns the Figure 4/8 workload (PR-Delta on the LJ-class graph).
func ljPR(b *testing.B) *bench.Workload {
	b.Helper()
	opt := benchOptions()
	opt.Algorithms = []string{"pr"}
	ws, err := bench.Workloads(opt)
	if err != nil {
		b.Fatal(err)
	}
	return ws[0]
}

func runOpt(b *testing.B, w *bench.Workload) *core.Result {
	b.Helper()
	a, err := core.New(core.OptimizedConfig(), w.Graph, w.NewAlgorithm())
	if err != nil {
		b.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// sweepOnce caches the LJ engine sweep shared by the Figure 10–14 and
// energy benchmarks; the first benchmark to need it pays its cost inside
// its own timer.
var (
	sweepMu     sync.Mutex
	cachedSweep *bench.Sweep
)

func ljSweep(b *testing.B) *bench.Sweep {
	b.Helper()
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if cachedSweep == nil {
		sw, err := bench.RunSweep(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		cachedSweep = sw
	}
	return cachedSweep
}

// ---------------------------------------------------------------- Figures

func BenchmarkFig04Coalescing(b *testing.B) {
	w := ljPR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runOpt(b, w)
		var produced, coalesced int64
		for _, rs := range res.RoundLog {
			produced += rs.Produced
			coalesced += rs.Coalesced
		}
		b.ReportMetric(100*float64(coalesced)/float64(produced), "coalesce-pct")
		b.ReportMetric(float64(res.Rounds), "rounds")
	}
}

func BenchmarkFig08Lookahead(b *testing.B) {
	w := ljPR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runOpt(b, w)
		var ahead, total int64
		for _, rs := range res.RoundLog {
			for bk, c := range rs.Lookahead {
				total += c
				if bk > 0 {
					ahead += c
				}
			}
		}
		b.ReportMetric(100*float64(ahead)/float64(total), "lookahead-pct")
	}
}

func BenchmarkFig10Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw := ljSweep(b)
		b.ReportMetric(sw.Geomean((*bench.Cell).OptModelSpeedup), "opt-speedup-x")
		b.ReportMetric(sw.Geomean((*bench.Cell).BaseModelSpeedup), "base-speedup-x")
		b.ReportMetric(sw.Geomean((*bench.Cell).GionModelSpeedup), "gion-speedup-x")
	}
}

func BenchmarkFig11Offchip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw := ljSweep(b)
		var ratio float64
		for _, c := range sw.Cells {
			ratio += float64(c.Opt.OffChipAccesses()) / float64(c.Gion.OffChipAccesses())
		}
		b.ReportMetric(ratio/float64(len(sw.Cells)), "gp-vs-gion-accesses")
	}
}

func BenchmarkFig12Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw := ljSweep(b)
		var gp, gion float64
		for _, c := range sw.Cells {
			gp += c.Opt.Utilization
			gion += c.Gion.Utilization
		}
		n := float64(len(sw.Cells))
		b.ReportMetric(gp/n, "gp-utilization")
		b.ReportMetric(gion/n, "gion-utilization")
	}
}

func BenchmarkFig13Stages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw := ljSweep(b)
		stageSum := map[string]float64{}
		for _, c := range sw.Cells {
			for s, v := range c.Opt.StageMeans {
				stageSum[s] += v
			}
		}
		n := float64(len(sw.Cells))
		for _, s := range core.StageNames {
			b.ReportMetric(stageSum[s]/n, s+"-cycles")
		}
	}
}

func BenchmarkFig14Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw := ljSweep(b)
		var genEdge, procStall float64
		for _, c := range sw.Cells {
			genEdge += c.Opt.GenBreakdown["edge_read"]
			procStall += c.Opt.ProcBreakdown["stalling"]
		}
		n := float64(len(sw.Cells))
		b.ReportMetric(genEdge/n, "gen-edge-read-frac")
		b.ReportMetric(procStall/n, "proc-stall-frac")
	}
}

// ---------------------------------------------------------------- Tables

func BenchmarkTable1AccessPatterns(b *testing.B) {
	w := ljPR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push := ligra.DefaultConfig()
		push.Direction = ligra.PushOnly
		rPush := ligra.New(push, w.Graph).Run(w.NewAlgorithm())
		pull := ligra.DefaultConfig()
		pull.Direction = ligra.PullOnly
		rPull := ligra.New(pull, w.Graph).Run(w.NewAlgorithm())
		b.ReportMetric(float64(rPush.Access.AtomicUpdates), "push-atomics")
		b.ReportMetric(float64(rPull.Access.RandomReads), "pull-random-reads")
	}
}

func BenchmarkTable2Mappings(b *testing.B) {
	samples := []float64{0, 1, 0.5, 7, 1e6, algorithms.Infinity}
	algs := []algorithms.Algorithm{
		algorithms.NewPageRankDelta(), algorithms.NewAdsorption(),
		algorithms.NewSSSP(0), algorithms.NewBFS(0),
		algorithms.NewConnectedComponents(),
	}
	for i := 0; i < b.N; i++ {
		for _, a := range algs {
			if err := algorithms.CheckAlgebraicLaws(a, samples); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable4Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range gen.Datasets {
			g, err := spec.Generate(gen.Tiny)
			if err != nil {
				b.Fatal(err)
			}
			_ = graph.ComputeStats(g)
		}
	}
}

func BenchmarkTable5Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := energy.TableV()
		b.ReportMetric(energy.AcceleratorPowerWatts(rows, 1), "accel-watts")
		b.ReportMetric(energy.TotalAreaMM2(rows), "area-mm2")
	}
}

func BenchmarkEnergyEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw := ljSweep(b)
		b.ReportMetric(sw.Geomean((*bench.Cell).EnergyEfficiency), "efficiency-x")
	}
}

// ----------------------------------------------- Engine micro-benchmarks

func BenchmarkEngineGraphPulseOpt(b *testing.B) {
	w := ljPR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runOpt(b, w)
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
	}
}

func BenchmarkEngineGraphPulseBase(b *testing.B) {
	w := ljPR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.New(core.BaselineConfig(), w.Graph, w.NewAlgorithm())
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
	}
}

func BenchmarkEngineGraphicionado(b *testing.B) {
	w := ljPR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := graphicionado.Run(graphicionado.DefaultConfig(), w.Graph, w.NewAlgorithm())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
	}
}

func BenchmarkEngineLigra(b *testing.B) {
	w := ljPR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res := ligra.New(ligra.DefaultConfig(), w.Graph).Run(w.NewAlgorithm())
		b.ReportMetric(time.Since(start).Seconds()*1e3, "wall-ms")
		b.ReportMetric(float64(res.Iterations), "iterations")
	}
}

func BenchmarkEngineReferenceSolve(b *testing.B) {
	w := ljPR(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := algorithms.Solve(w.Graph, w.NewAlgorithm())
		b.ReportMetric(float64(res.Activations), "activations")
	}
}

// ------------------------------------------- Component micro-benchmarks

func BenchmarkDRAMStream(b *testing.B) {
	m := mem.New(mem.DefaultConfig())
	done := 0
	m.OnComplete(func(uint32) { done++ })
	addr := uint64(0)
	cycle := uint64(0)
	b.ResetTimer()
	for done < b.N {
		for m.Enqueue(mem.Request{Addr: addr, UsefulBytes: 64}) {
			addr += mem.LineBytes
		}
		m.Tick(cycle)
		cycle++
	}
	b.SetBytes(mem.LineBytes)
}

func BenchmarkRMATGeneration(b *testing.B) {
	p := gen.RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 12, EdgeFactor: 8, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := gen.RMAT(p); err != nil {
			b.Fatal(err)
		}
	}
}
