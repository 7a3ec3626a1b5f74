package core

import (
	"math"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// testConfigs returns the two paper configurations with tight deadlines for
// tests.
func testConfigs() []Config {
	opt := OptimizedConfig()
	opt.MaxCycles = 200_000_000
	base := BaselineConfig()
	base.MaxCycles = 200_000_000
	return []Config{opt, base}
}

func tinyGraphs(t testing.TB) map[string]*graph.CSR {
	t.Helper()
	out := map[string]*graph.CSR{}
	var err error
	if out["chain"], err = gen.Chain(50, false); err != nil {
		t.Fatal(err)
	}
	if out["star"], err = gen.Star(64); err != nil {
		t.Fatal(err)
	}
	if out["grid"], err = gen.Grid2D(12, 12, true, 3); err != nil {
		t.Fatal(err)
	}
	if out["rmat"], err = gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// rmatTestGraph is one RMAT instance big enough to exercise the crossbar,
// spill path, and several scheduler rounds, small enough for -race runs.
func rmatTestGraph(t testing.TB) *gen.RMATParams {
	t.Helper()
	return &gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 7,
	}
}

// run executes alg on g under cfg and fails the test on error.
func run(t testing.TB, cfg Config, g *graph.CSR, alg algorithms.Algorithm) *Result {
	t.Helper()
	a, err := New(cfg, g, alg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", cfg.Name, alg.Name(), err)
	}
	return res
}

// assertValuesMatch compares engine output against the reference fixed
// point. tol is relative for values above 1 (threshold-bearing algorithms
// accumulate residue proportional to the value); exact matches and matching
// infinities always pass.
func assertValuesMatch(t *testing.T, label string, got, want []float64, tol float64) {
	t.Helper()
	bad := 0
	for v := range want {
		a, b := got[v], want[v]
		if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) || (math.IsInf(a, -1) && math.IsInf(b, -1)) {
			continue
		}
		if math.Abs(a-b) > tol*math.Max(1, math.Abs(b)) {
			bad++
			if bad <= 3 {
				t.Errorf("%s: vertex %d = %g, want %g", label, v, a, b)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d/%d vertices mismatched", label, bad, len(want))
	}
}

// TestAcceleratorMatchesOracle is the core integration test: both paper
// configurations must converge to the reference fixed point for every
// algorithm on every graph shape.
func TestAcceleratorMatchesOracle(t *testing.T) {
	graphs := tinyGraphs(t)
	for name, g := range graphs {
		algs := []struct {
			mk  func() algorithms.Algorithm
			tol float64
		}{
			{func() algorithms.Algorithm { return algorithms.NewBFS(0) }, 0},
			{func() algorithms.Algorithm { return algorithms.NewSSSP(0) }, 1e-9},
			{func() algorithms.Algorithm { return algorithms.NewReach(0) }, 0},
			{func() algorithms.Algorithm { return algorithms.NewConnectedComponents() }, 0},
			{func() algorithms.Algorithm { return algorithms.NewSSWP(0) }, 1e-9},
			{func() algorithms.Algorithm { return algorithms.NewPageRankDelta() }, 5e-3},
		}
		for _, tc := range algs {
			want := algorithms.Solve(g, tc.mk())
			for _, cfg := range testConfigs() {
				alg := tc.mk()
				res := run(t, cfg, g, alg)
				assertValuesMatch(t, name+"/"+alg.Name()+"/"+cfg.Name, res.Values, want.Values, tc.tol)
			}
		}
	}
}

func TestAcceleratorAdsorption(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 8,
		Weighted: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ng := g.NormalizeInbound()
	want := algorithms.AdsorptionFixedPoint(ng, algorithms.NewAdsorption(), 1e-12, 10_000)
	for _, cfg := range testConfigs() {
		res := run(t, cfg, ng, algorithms.NewAdsorption())
		assertValuesMatch(t, "adsorption/"+cfg.Name, res.Values, want, 5e-3)
	}
}

// TestSlicedMatchesUnsliced: partitioned execution (Section IV-F) must
// produce identical results to single-slice execution.
func TestSlicedMatchesUnsliced(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mkAlg := range []func() algorithms.Algorithm{
		func() algorithms.Algorithm { return algorithms.NewBFS(0) },
		func() algorithms.Algorithm { return algorithms.NewConnectedComponents() },
		func() algorithms.Algorithm { return algorithms.NewSSSP(0) },
	} {
		whole := run(t, testConfigs()[0], g, mkAlg())
		cfg := testConfigs()[0]
		cfg.QueueCapacity = g.NumVertices() / 3 // force ≥3 slices
		sliced := run(t, cfg, g, mkAlg())
		if sliced.Slices < 3 {
			t.Fatalf("expected ≥3 slices, got %d", sliced.Slices)
		}
		if sliced.SpilledEvents == 0 {
			t.Error("sliced run spilled no events")
		}
		if sliced.SliceSwitches == 0 {
			t.Error("sliced run never switched slices")
		}
		assertValuesMatch(t, "sliced/"+mkAlg().Name(), sliced.Values, whole.Values, 1e-9)
	}
}

// TestSlicedChainCrossesEveryBoundary: BFS down a chain reaches each slice
// boundary once, so exactly one event spills per boundary and the
// scheduler visits each slice once, in order.
func TestSlicedChainCrossesEveryBoundary(t *testing.T) {
	g, err := gen.Chain(400, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	cfg.QueueCapacity = 100
	res := run(t, cfg, g, algorithms.NewBFS(0))
	if res.Slices != 4 || res.SliceSwitches != 3 || res.SpilledEvents != 3 {
		t.Errorf("slices=%d switches=%d spilled=%d, want 4/3/3 (one spill per boundary)",
			res.Slices, res.SliceSwitches, res.SpilledEvents)
	}
	for v := 0; v < 400; v++ {
		if res.Values[v] != float64(v) {
			t.Fatalf("BFS level[%d] = %g, want %d", v, res.Values[v], v)
		}
	}
}

func TestCoalescingReducesEvents(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	res := run(t, cfg, g, algorithms.NewPageRankDelta())
	if res.EventsCoalesced == 0 {
		t.Fatal("no events coalesced on a skewed graph")
	}
	// Paper: "over 90% of the events are eliminated via coalescing" for PR
	// on LiveJournal; on smaller graphs demand a still-strong majority.
	frac := float64(res.EventsCoalesced) / float64(res.EventsEmitted+int64(g.NumVertices()))
	if frac < 0.5 {
		t.Errorf("coalesced fraction = %.2f, want > 0.5", frac)
	}
}

func TestOptimizedFasterThanBaseline(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 11, EdgeFactor: 10,
		Weighted: true, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := testConfigs()
	opt := run(t, cfgs[0], g, algorithms.NewPageRankDelta())
	base := run(t, cfgs[1], g, algorithms.NewPageRankDelta())
	if opt.Cycles >= base.Cycles {
		t.Errorf("optimized (%d cycles) not faster than baseline (%d cycles)",
			opt.Cycles, base.Cycles)
	}
}

func TestPrefetchReducesVtxMemStage(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 11, EdgeFactor: 10,
		Weighted: true, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := testConfigs()
	opt := run(t, cfgs[0], g, algorithms.NewPageRankDelta())
	base := run(t, cfgs[1], g, algorithms.NewPageRankDelta())
	// Paper Figure 13: with prefetching "the average latency for the vertex
	// memory reads become only few cycles"; without it the full DRAM
	// latency is exposed.
	if opt.StageMeans[StageNames[stageVtxMem]] >= base.StageMeans[StageNames[stageVtxMem]] {
		t.Errorf("prefetch vtx_mem %.1f not below direct-read %.1f",
			opt.StageMeans[StageNames[stageVtxMem]], base.StageMeans[StageNames[stageVtxMem]])
	}
	if opt.StageMeans[StageNames[stageVtxMem]] > 30 {
		t.Errorf("prefetched vtx_mem stage = %.1f cycles, want few cycles",
			opt.StageMeans[StageNames[stageVtxMem]])
	}
}

// TestStageMean checks Figure 13's per-event mean: a stage's cycles over
// the events that completed it, 0 for a stage no event completed, and
// cycles accrued without an event still in the numerator.
func TestStageMean(t *testing.T) {
	a := &Accelerator{}
	a.stageEvent(stageVtxMem, 10)
	a.stageEvent(stageVtxMem, 20)
	a.stageEvent(stageProcess, 4)
	a.stageCycles[stageEdgeMem] += 6
	a.stageEvent(stageEdgeMem, 2)
	a.stageCycles[stageGenerate] += 6
	for _, c := range []struct {
		stage int
		want  float64
	}{{stageVtxMem, 15}, {stageProcess, 4}, {stageGenBuffer, 0}, {stageEdgeMem, 8}, {stageGenerate, 0}} {
		if got := a.stageMean(c.stage); got != c.want {
			t.Errorf("stageMean(%s) = %g, want %g", StageNames[c.stage], got, c.want)
		}
	}
	if len(StageNames) != numStages {
		t.Errorf("%d stage names for %d stages", len(StageNames), numStages)
	}
}

func TestRoundLogShape(t *testing.T) {
	g, err := gen.Star(128)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, testConfigs()[0], g, algorithms.NewConnectedComponents())
	if len(res.RoundLog) != res.Rounds {
		t.Fatalf("round log has %d entries, Rounds = %d", len(res.RoundLog), res.Rounds)
	}
	// Round 0 produced at least the initial events (one per vertex); events
	// generated inside round 0 that land in not-yet-drained rows also count
	// (the within-round lookahead of the paper's Figure 7).
	if res.RoundLog[0].Produced < int64(g.NumVertices()) {
		t.Errorf("round 0 produced %d, want >= %d", res.RoundLog[0].Produced, g.NumVertices())
	}
	// Across the whole run, produced events are exactly the initial events
	// plus every emission that stayed on-chip.
	var produced int64
	for _, rs := range res.RoundLog {
		produced += rs.Produced
	}
	if want := int64(g.NumVertices()) + res.EventsEmitted - res.SpilledEvents; produced != want {
		t.Errorf("total produced %d, want %d", produced, want)
	}
	// Final round leaves an empty queue.
	if last := res.RoundLog[len(res.RoundLog)-1]; last.Remaining != 0 {
		t.Errorf("final round remaining = %d, want 0", last.Remaining)
	}
	var processed int64
	for _, rs := range res.RoundLog {
		processed += rs.Processed
	}
	if processed != res.EventsProcessed {
		t.Errorf("round log processed sum = %d, want %d", processed, res.EventsProcessed)
	}
}

// TestEventConservation: every event inserted into the queue is either
// coalesced or eventually processed; none are lost or duplicated.
func TestEventConservation(t *testing.T) {
	for name, g := range tinyGraphs(t) {
		for _, cfg := range testConfigs() {
			res := run(t, cfg, g, algorithms.NewConnectedComponents())
			inserted := res.EventsEmitted + int64(g.NumVertices()) - res.SpilledEvents
			if got := res.EventsProcessed + res.EventsCoalesced; got != inserted {
				t.Errorf("%s/%s: processed(%d)+coalesced(%d) = %d, want inserted %d",
					name, cfg.Name, res.EventsProcessed, res.EventsCoalesced, got, inserted)
			}
		}
	}
}

func TestLookaheadObserved(t *testing.T) {
	// A cyclic, skewed graph with PR-Delta keeps re-activating vertices, so
	// coalescing must compound contributions (nonzero lookahead).
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.6, B: 0.17, C: 0.17, D: 0.06, Scale: 10, EdgeFactor: 10,
		Weighted: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, testConfigs()[0], g, algorithms.NewPageRankDelta())
	var nonzero int64
	for _, rs := range res.RoundLog {
		for b := 1; b < LookaheadBuckets; b++ {
			nonzero += rs.Lookahead[b]
		}
	}
	if nonzero == 0 {
		t.Error("no events with nonzero lookahead; coalescing lookahead tracking broken")
	}
}

func TestMemoryTrafficAccounted(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range testConfigs() {
		res := run(t, cfg, g, algorithms.NewPageRankDelta())
		if res.MemReads == 0 || res.MemWrites == 0 {
			t.Errorf("%s: reads=%d writes=%d, want both nonzero", cfg.Name, res.MemReads, res.MemWrites)
		}
		if res.BytesMoved != 64*(res.MemReads+res.MemWrites) {
			t.Errorf("%s: BytesMoved=%d inconsistent with transfers", cfg.Name, res.BytesMoved)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("%s: Utilization=%g out of (0,1]", cfg.Name, res.Utilization)
		}
		if res.BytesUseful > res.BytesMoved {
			t.Errorf("%s: useful %d > moved %d", cfg.Name, res.BytesUseful, res.BytesMoved)
		}
	}
}

func TestAblationCoalescingDisabled(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 6,
		Weighted: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	on := testConfigs()[0]
	off := testConfigs()[0]
	off.CoalesceDisabled = true
	alg := algorithms.NewBFS(0)
	resOn := run(t, on, g, alg)
	resOff := run(t, off, g, algorithms.NewBFS(0))
	want := algorithms.Solve(g, algorithms.NewBFS(0))
	assertValuesMatch(t, "coalesce-off", resOff.Values, want.Values, 0)
	if resOff.EventsProcessed <= resOn.EventsProcessed {
		t.Errorf("disabling coalescing did not increase processed events: %d vs %d",
			resOff.EventsProcessed, resOn.EventsProcessed)
	}
}

func TestConfigValidation(t *testing.T) {
	g, _ := gen.Chain(4, false)
	bad := OptimizedConfig()
	bad.NumProcessors = 0
	if _, err := New(bad, g, algorithms.NewBFS(0)); err == nil {
		t.Error("New accepted NumProcessors=0")
	}
	empty, _ := graph.FromEdges(0, nil, false)
	if _, err := New(OptimizedConfig(), empty, algorithms.NewBFS(0)); err == nil {
		t.Error("New accepted empty graph")
	}
	muts := []func(*Config){
		func(c *Config) { c.NumBins = 0 },
		func(c *Config) { c.BinCols = 0 },
		func(c *Config) { c.InputBufferDepth = 0 },
		func(c *Config) { c.CrossbarPorts = 0 },
		func(c *Config) { c.GenQueueDepth = 0 },
		func(c *Config) { c.ProcessLatency = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.StreamsPerProcessor = 0 },
		func(c *Config) { c.ScratchpadLines = 0 },
		func(c *Config) { c.NetworkQueueDepth = 1 },
	}
	for i, mut := range muts {
		c := OptimizedConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDeadlineError(t *testing.T) {
	g, err := gen.Chain(1000, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := OptimizedConfig()
	cfg.MaxCycles = 10 // absurdly small
	a, err := New(cfg, g, algorithms.NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err == nil {
		t.Error("Run with MaxCycles=10 did not fail")
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g, err := graph.FromEdges(1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, testConfigs()[0], g, algorithms.NewConnectedComponents())
	if res.Values[0] != 0 {
		t.Errorf("CC on single vertex = %g, want 0", res.Values[0])
	}
}

func TestSelfLoopGraph(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 0, Weight: 1}, {Src: 0, Dst: 1, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.Solve(g, algorithms.NewBFS(0))
	res := run(t, testConfigs()[0], g, algorithms.NewBFS(0))
	assertValuesMatch(t, "self-loop", res.Values, want.Values, 0)
}

func TestSecondsConsistent(t *testing.T) {
	g, _ := gen.Chain(100, false)
	res := run(t, testConfigs()[0], g, algorithms.NewBFS(0))
	if got := res.Seconds; math.Abs(got-float64(res.Cycles)/1e9) > 1e-15 {
		t.Errorf("Seconds = %g, want cycles/1GHz", got)
	}
	if res.OffChipAccesses() != res.MemReads+res.MemWrites {
		t.Error("OffChipAccesses inconsistent")
	}
}

func TestGlobalTermination(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 10,
		Weighted: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With a very tight local threshold PR runs long; the global condition
	// (Section IV-C) cuts it off once a round's Σ|Δ| falls below the bound.
	mkAlg := func() algorithms.Algorithm {
		pr := algorithms.NewPageRankDelta()
		pr.Threshold = 1e-9
		return pr
	}
	local := testConfigs()[0]
	resLocal := run(t, local, g, mkAlg())
	global := testConfigs()[0]
	global.GlobalProgressThreshold = 1e-2
	resGlobal := run(t, global, g, mkAlg())
	if !resGlobal.TerminatedGlobally {
		t.Fatal("global termination did not fire")
	}
	if resLocal.TerminatedGlobally {
		t.Error("local-only run reported global termination")
	}
	if resGlobal.Cycles >= resLocal.Cycles {
		t.Errorf("global termination (%d cycles) not earlier than local (%d)",
			resGlobal.Cycles, resLocal.Cycles)
	}
	// Values remain close to the fully converged fixed point.
	for v := range resLocal.Values {
		tol := 1e-2 * math.Max(1, math.Abs(resLocal.Values[v]))
		if math.Abs(resGlobal.Values[v]-resLocal.Values[v]) > tol {
			t.Errorf("vertex %d: global %g vs local %g", v, resGlobal.Values[v], resLocal.Values[v])
			break
		}
	}
}

func TestDensestFirstSchedule(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.Solve(g, algorithms.NewSSSP(0))
	cfg := testConfigs()[0]
	cfg.Schedule = ScheduleDensestFirst
	res := run(t, cfg, g, algorithms.NewSSSP(0))
	assertValuesMatch(t, "densest-first", res.Values, want.Values, 1e-9)
	rr := run(t, testConfigs()[0], g, algorithms.NewSSSP(0))
	if res.EventsProcessed == 0 || rr.EventsProcessed == 0 {
		t.Fatal("no events processed")
	}
}

// TestDeterminism: two identical runs produce identical cycle counts and
// values — the simulator has no hidden nondeterminism.
func TestDeterminism(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	r1 := run(t, testConfigs()[0], g, algorithms.NewPageRankDelta())
	r2 := run(t, testConfigs()[0], g, algorithms.NewPageRankDelta())
	if r1.Cycles != r2.Cycles || r1.EventsProcessed != r2.EventsProcessed {
		t.Errorf("nondeterministic: %d/%d cycles, %d/%d events",
			r1.Cycles, r2.Cycles, r1.EventsProcessed, r2.EventsProcessed)
	}
	for v := range r1.Values {
		if r1.Values[v] != r2.Values[v] {
			t.Fatalf("values differ at %d", v)
		}
	}
}

// TestIncrementalOnAccelerator: the warm-start streaming extension runs on
// the accelerator itself — converge, insert edges, reconverge incrementally
// — and matches a cold start with far fewer processed events.
func TestIncrementalOnAccelerator(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := run(t, testConfigs()[0], g, algorithms.NewSSSP(0))
	added := []graph.Edge{
		{Src: 1, Dst: 700, Weight: 0.01},
		{Src: 700, Dst: 900, Weight: 0.01},
	}
	newG, warm, err := algorithms.IncrementalAfterInsert(algorithms.NewSSSP(0), g, added, cold.Values)
	if err != nil {
		t.Fatal(err)
	}
	incr := run(t, testConfigs()[0], newG, warm)
	want := run(t, testConfigs()[0], newG, algorithms.NewSSSP(0))
	assertValuesMatch(t, "incremental-accel", incr.Values, want.Values, 1e-9)
	if incr.EventsProcessed >= want.EventsProcessed {
		t.Errorf("incremental processed %d events, cold %d — no savings",
			incr.EventsProcessed, want.EventsProcessed)
	}
}

func TestGraphWithNoEdges(t *testing.T) {
	g, err := graph.FromEdges(32, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range testConfigs() {
		res := run(t, cfg, g, algorithms.NewPageRankDelta())
		for v, r := range res.Values {
			if math.Abs(r-0.15) > 1e-12 {
				t.Fatalf("%s: rank[%d] = %g, want 0.15", cfg.Name, v, r)
			}
		}
		if res.EventsEmitted != 0 {
			t.Errorf("%s: %d events emitted with no edges", cfg.Name, res.EventsEmitted)
		}
	}
}

func TestHighDegreeHub(t *testing.T) {
	// One vertex with out-degree ≫ generation-stream cache: exercises the
	// long sequential edge stream path.
	g, err := gen.Star(2048)
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.Solve(g, algorithms.NewBFS(0))
	for _, cfg := range testConfigs() {
		res := run(t, cfg, g, algorithms.NewBFS(0))
		assertValuesMatch(t, "hub/"+cfg.Name, res.Values, want.Values, 0)
	}
}

func TestWeightedEdgesReachSimulator(t *testing.T) {
	// SSSP must honor weights through the simulated edge stream, not just
	// the functional oracle.
	g, err := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 5},
		{Src: 0, Dst: 2, Weight: 1},
		{Src: 2, Dst: 1, Weight: 1},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, testConfigs()[0], g, algorithms.NewSSSP(0))
	if res.Values[1] != 2 {
		t.Errorf("dist[1] = %g, want 2 (via vertex 2)", res.Values[1])
	}
}

func TestBinRowColMappingCorrectButSlower(t *testing.T) {
	// The ablation mapping concentrates clusters into single bins; results
	// must be identical, and hot-cluster workloads should get slower.
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 11, EdgeFactor: 10,
		Weighted: true, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, testConfigs()[0], g, algorithms.NewConnectedComponents())
	cfg := testConfigs()[0]
	cfg.Mapping = MapBinRowCol
	got := run(t, cfg, g, algorithms.NewConnectedComponents())
	assertValuesMatch(t, "bin-row-col", got.Values, want.Values, 0)
}
