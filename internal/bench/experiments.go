package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/core"
	"graphpulse/internal/energy"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim"
	"graphpulse/internal/sim/telemetry"
)

// failedRow renders a failed cell's table row: dataset/algorithm columns
// plus the structured reason, in place of the unmeasurable metrics.
func failedRow(tw io.Writer, c *Cell) {
	fmt.Fprintf(tw, "%s\t%s\tFAILED: %s\n",
		c.Workload.AlgName, c.Workload.Dataset.Abbrev, c.FailureReason())
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the artifact id ("fig10", "table5", …).
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// NeedsSweep marks experiments that consume the shared engine sweep.
	NeedsSweep bool
	// Run renders the experiment. in.sweep is non-nil iff NeedsSweep.
	Run func(opt Options, in *shared) error
}

// shared holds the simulations several experiments read, so that one
// RunExperiments call runs each of them once: the engine sweep and the
// LJ-class PageRank-Delta run on the optimized configuration.
type shared struct {
	sweep *Sweep
	ljW   *Workload
	lj    *core.Result
}

// ljRun returns the PR-Delta-on-LiveJournal workload Table I, Figures 4
// and 8, the timeline, slicing and ablation are measured on, and its
// optimized-configuration run, simulating it on first use. Telemetry is on
// for the timeline experiment; it changes no other statistic.
func (in *shared) ljRun(opt Options) (*Workload, *core.Result, error) {
	if in.lj == nil {
		opt.Datasets, opt.Algorithms = []string{"LJ"}, []string{"pr"}
		ws, err := Workloads(opt)
		if err != nil {
			return nil, nil, err
		}
		cfg := core.OptimizedConfig()
		cfg.Telemetry = telemetry.Default()
		res, err := runSim(cfg, ws[0], opt)
		if err != nil {
			return nil, nil, err
		}
		in.ljW, in.lj = ws[0], res
	}
	return in.ljW, in.lj, nil
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Access-pattern comparison of processing models", Run: runTable1},
		{ID: "table2", Title: "Algorithm mapping functions (verified)", Run: runTable2},
		{ID: "table3", Title: "Device configurations", Run: runTable3},
		{ID: "table4", Title: "Graph workloads", Run: runTable4},
		{ID: "fig4", Title: "Events produced vs remaining after coalescing", Run: runFig4},
		{ID: "fig8", Title: "Degree of lookahead per round", Run: runFig8},
		{ID: "fig10", Title: "Speedup over Ligra", NeedsSweep: true, Run: runFig10},
		{ID: "fig11", Title: "Off-chip accesses normalized to Graphicionado", NeedsSweep: true, Run: runFig11},
		{ID: "fig12", Title: "Fraction of off-chip data utilized", NeedsSweep: true, Run: runFig12},
		{ID: "fig13", Title: "Cycles per event per execution stage", NeedsSweep: true, Run: runFig13},
		{ID: "fig14", Title: "Processor/generator time breakdown", NeedsSweep: true, Run: runFig14},
		{ID: "table5", Title: "Power and area of accelerator components", Run: runTable5},
		{ID: "energy", Title: "Energy efficiency vs software baseline", NeedsSweep: true, Run: runEnergy},
		{ID: "slicing", Title: "Large-graph slicing overhead (Section IV-F)", Run: runSlicing},
		{ID: "ablation", Title: "Design-choice ablations (coalescing, prefetch, streams)", Run: runAblation},
		{ID: "timeline", Title: "Time-resolved telemetry (queue occupancy, event rate, DRAM bandwidth)", Run: runTimeline},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// ---------------------------------------------------------------- Table I

func runTable1(opt Options, in *shared) error {
	w, gp, err := in.ljRun(opt)
	if err != nil {
		return err
	}
	push := ligra.DefaultConfig()
	push.Direction = ligra.PushOnly
	pull := ligra.DefaultConfig()
	pull.Direction = ligra.PullOnly
	rPush := ligra.New(push, w.Graph).Run(w.NewAlgorithm())
	rPull := ligra.New(pull, w.Graph).Run(w.NewAlgorithm())
	fmt.Fprintf(opt.Out, "Table I — access patterns, %s on %s-class graph (%s tier)\n",
		algorithmTitle[w.AlgName], w.Dataset.Abbrev, opt.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "metric\tPULL\tPUSH\tGraphPulse")
	fmt.Fprintf(tw, "random reads\t%d\t%d\t%s\n",
		rPull.Access.RandomReads, rPush.Access.RandomReads, "0 (events carry data)")
	fmt.Fprintf(tw, "random writes\t%d\t%d\t%s\n",
		rPull.Access.RandomWrites, rPush.Access.RandomWrites,
		fmt.Sprintf("%d (coalesced line write-backs)", gp.MemWrites))
	fmt.Fprintf(tw, "atomic updates\t%d\t%d\t0 (event scheduling)\n",
		rPull.Access.AtomicUpdates, rPush.Access.AtomicUpdates)
	fmt.Fprintf(tw, "synchronization\tglobal barrier ×%d\tglobal barrier ×%d\tnone (async rounds ×%d)\n",
		rPull.Iterations, rPush.Iterations, gp.Rounds)
	fmt.Fprintf(tw, "active-set tracking\tvertex bitmap\tedge frontier\tnot needed (queue is the active set)\n")
	return tw.Flush()
}

// ---------------------------------------------------------------- Table II

func runTable2(opt Options, _ *shared) error {
	fmt.Fprintln(opt.Out, "Table II — algorithm-to-GraphPulse mappings (reduce laws machine-verified)")
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "application\tpropagate(δ)\treduce\tV_init\tΔV_init")
	rows := []struct {
		alg                      algorithms.Algorithm
		prop, red, vinit, dvinit string
	}{
		{algorithms.NewPageRankDelta(), "α·E_ij·δ/N(src)", "+", "0", "1-α"},
		{algorithms.NewAdsorption(), "α_i·E_ij·δ", "+", "0", "β_j·I_j"},
		{algorithms.NewSSSP(0), "E_ij+δ", "min", "∞", "0 (root); none"},
		{algorithms.NewBFS(0), "δ+1 (levels; Table II literal: 0)", "min", "∞", "0 (root); none"},
		{algorithms.NewConnectedComponents(), "δ", "max", "-1", "j"},
	}
	samples := []float64{0, 1, 0.25, 7, 1e6, algorithms.Infinity}
	for _, r := range rows {
		status := "ok"
		if err := algorithms.CheckAlgebraicLaws(r.alg, samples); err != nil {
			status = err.Error()
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t[laws: %s]\n",
			r.alg.Name(), r.prop, r.red, r.vinit, r.dvinit, status)
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- Table III

func runTable3(opt Options, _ *shared) error {
	fmt.Fprintln(opt.Out, "Table III — device configurations")
	tw := newTable(opt.Out)
	oc := core.OptimizedConfig()
	bc := core.BaselineConfig()
	xeon := ligra.PaperXeon()
	fmt.Fprintf(tw, "system\tcompute\ton-chip memory\toff-chip bandwidth\n")
	fmt.Fprintf(tw, "Software (Ligra-style, modelled)\t%d Xeon cores (analytic model)\tnot modelled\t%.0f GB/s, %.0f ns DRAM latency\n",
		xeon.Cores, xeon.SeqBandwidth/1e9, xeon.RandomLatency*1e9)
	fmt.Fprintf(tw, "%s\t%d processors ×%d gen streams @1GHz\t64MB queue (%d bins), %d-line scratchpads\t%d× DDR3 channels\n",
		oc.Name, oc.NumProcessors, oc.StreamsPerProcessor, oc.NumBins, oc.ScratchpadLines, oc.Memory.Channels)
	fmt.Fprintf(tw, "%s\t%d processors @1GHz (in-processor generation)\t64MB queue (%d bins)\t%d× DDR3 channels\n",
		bc.Name, bc.NumProcessors, bc.NumBins, bc.Memory.Channels)
	fmt.Fprintf(tw, "Graphicionado model\t8 streams @1GHz\tunlimited (paper's conservative grant)\t%d× DDR3 channels\n",
		oc.Memory.Channels)
	return tw.Flush()
}

// ---------------------------------------------------------------- Table IV

func runTable4(opt Options, _ *shared) error {
	specs, err := datasetFilter(opt.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.Out, "Table IV — graph workloads (synthetic stand-ins at %s tier)\n", opt.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "graph\tpaper nodes\tpaper edges\tstand-in nodes\tstand-in edges\tmax deg\tavg deg\tdescription")
	for _, spec := range specs {
		g, err := gen.Default.Generate(spec, opt.Tier)
		if err != nil {
			return err
		}
		st := graph.ComputeStats(g)
		fmt.Fprintf(tw, "%s(%s)\t%.2fM\t%.2fM\t%d\t%d\t%d\t%.1f\t%s\n",
			spec.Name, spec.Abbrev,
			float64(spec.PaperVertices)/1e6, float64(spec.PaperEdges)/1e6,
			st.Vertices, st.Edges, st.MaxOutDegree, st.AvgOutDegree, spec.Description)
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- Figure 4

func runFig4(opt Options, in *shared) error {
	w, res, err := in.ljRun(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.Out, "Figure 4 — events produced (pre-coalescing) vs remaining, %s on %s (%s tier)\n",
		algorithmTitle[w.AlgName], w.Dataset.Abbrev, opt.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "round\tproduced\tcoalesced\tremaining-after\televiminated%")
	var produced, coalesced int64
	for _, rs := range res.RoundLog {
		pct := 0.0
		if rs.Produced > 0 {
			pct = 100 * float64(rs.Coalesced) / float64(rs.Produced)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.1f\n", rs.Round, rs.Produced, rs.Coalesced, rs.Remaining, pct)
		produced += rs.Produced
		coalesced += rs.Coalesced
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if produced > 0 {
		fmt.Fprintf(opt.Out, "total: %.1f%% of events eliminated via coalescing (paper: >90%% on LJ)\n",
			100*float64(coalesced)/float64(produced))
	}
	seriesChart(opt.Out, "event population per round", len(res.RoundLog),
		[]string{"produced", "remaining"}, func(srs, r int) float64 {
			if srs == 0 {
				return float64(res.RoundLog[r].Produced)
			}
			return float64(res.RoundLog[r].Remaining)
		}, 72)
	return nil
}

// ---------------------------------------------------------------- Figure 8

func runFig8(opt Options, in *shared) error {
	w, res, err := in.ljRun(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.Out, "Figure 8 — lookahead of events processed per round, %s on %s (%s tier)\n",
		algorithmTitle[w.AlgName], w.Dataset.Abbrev, opt.Tier)
	tw := newTable(opt.Out)
	fmt.Fprint(tw, "round")
	for _, name := range core.LookaheadBucketNames {
		fmt.Fprintf(tw, "\t%s", name)
	}
	fmt.Fprintln(tw)
	for _, rs := range res.RoundLog {
		fmt.Fprintf(tw, "%d", rs.Round)
		for _, c := range rs.Lookahead {
			fmt.Fprintf(tw, "\t%d", c)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	names := make([]string, core.LookaheadBuckets)
	for i, n := range core.LookaheadBucketNames {
		names[i] = "lookahead " + n
	}
	seriesChart(opt.Out, "lookahead classes per round", len(res.RoundLog), names,
		func(srs, r int) float64 { return float64(res.RoundLog[r].Lookahead[srs]) }, 72)
	return nil
}

// ---------------------------------------------------------------- Figure 10

func runFig10(opt Options, in *shared) error {
	sweep := in.sweep
	fmt.Fprintf(opt.Out, "Figure 10 — speedup over Ligra software baseline (%s tier)\n", sweep.Tier)
	fmt.Fprintln(opt.Out, "(accelerator time simulated at 1 GHz; Ligra time is the analytic 12-core-Xeon")
	fmt.Fprintln(opt.Out, " model of the same run's access counts)")
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "app\tgraph\tGP+Opt model\tGP-Base model\tG'nado model\topt vs g'nado")
	optVsGion := func(c *Cell) float64 { return c.Gion.Seconds / c.Opt.Seconds }
	for _, c := range sweep.Cells {
		if c.Failed() {
			failedRow(tw, c)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1fx\t%.1fx\t%.1fx\t%.2fx\n",
			c.Workload.AlgName, c.Workload.Dataset.Abbrev,
			c.OptModelSpeedup(), c.BaseModelSpeedup(), c.GionModelSpeedup(), optVsGion(c))
	}
	fmt.Fprintf(tw, "geomean\t\t%.1fx\t%.1fx\t%.1fx\t%.2fx\n",
		sweep.Geomean((*Cell).OptModelSpeedup), sweep.Geomean((*Cell).BaseModelSpeedup),
		sweep.Geomean((*Cell).GionModelSpeedup), sweep.Geomean(optVsGion))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(opt.Out, "paper: 28x mean over Ligra (up to 74x); 6.2x mean over Graphicionado")
	return nil
}

// ---------------------------------------------------------------- Figure 11

func runFig11(opt Options, in *shared) error {
	sweep := in.sweep
	fmt.Fprintf(opt.Out, "Figure 11 — off-chip accesses of GraphPulse normalized to Graphicionado (%s tier)\n", sweep.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "app\tgraph\tGP accesses\tG'nado accesses\tnormalized")
	normalized := func(c *Cell) float64 {
		return float64(c.Opt.OffChipAccesses()) / float64(c.Gion.OffChipAccesses())
	}
	for _, c := range sweep.Cells {
		if c.Failed() {
			failedRow(tw, c)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2f\n",
			c.Workload.AlgName, c.Workload.Dataset.Abbrev,
			c.Opt.OffChipAccesses(), c.Gion.OffChipAccesses(), normalized(c))
	}
	fmt.Fprintf(tw, "geomean\t\t\t\t%.2f\n", sweep.Geomean(normalized))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(opt.Out, "paper: GraphPulse needs 54% less off-chip traffic on average (ratio ≈ 0.46)")
	return nil
}

// ---------------------------------------------------------------- Figure 12

func runFig12(opt Options, in *shared) error {
	sweep := in.sweep
	fmt.Fprintf(opt.Out, "Figure 12 — fraction of off-chip data utilized (%s tier)\n", sweep.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "app\tgraph\tGraphPulse\tGraphPulse-Base\tGraphicionado")
	for _, c := range sweep.Cells {
		if c.Failed() {
			failedRow(tw, c)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.2f\n",
			c.Workload.AlgName, c.Workload.Dataset.Abbrev,
			c.Opt.Utilization, c.Base.Utilization, c.Gion.Utilization)
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- Figure 13

func runFig13(opt Options, in *shared) error {
	sweep := in.sweep
	fmt.Fprintf(opt.Out, "Figure 13 — mean cycles per event per execution stage, chronological (%s tier)\n", sweep.Tier)
	tw := newTable(opt.Out)
	fmt.Fprint(tw, "app\tgraph")
	for _, s := range core.StageNames {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	for _, c := range sweep.Cells {
		if c.Failed() {
			failedRow(tw, c)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s", c.Workload.AlgName, c.Workload.Dataset.Abbrev)
		for _, s := range core.StageNames {
			fmt.Fprintf(tw, "\t%.1f", c.Opt.StageMeans[s])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- Figure 14

func runFig14(opt Options, in *shared) error {
	sweep := in.sweep
	fmt.Fprintf(opt.Out, "Figure 14 — fraction of unit time per state: processors (left), generators (right) (%s tier)\n", sweep.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "app\tgraph\tP:vertex-read\tP:process\tP:stalling\tP:idle\tG:edge-read\tG:generate\tG:idle")
	for _, c := range sweep.Cells {
		if c.Failed() {
			failedRow(tw, c)
			continue
		}
		p, g := c.Opt.ProcBreakdown, c.Opt.GenBreakdown
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			c.Workload.AlgName, c.Workload.Dataset.Abbrev,
			p["vertex_read"], p["process"], p["stalling"], p["idle"],
			g["edge_read"], g["generate"], g["idle"])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(opt.Out, "paper: generators ~80% edge reads; processors ~70% stalling on generators")
	return nil
}

// ---------------------------------------------------------------- Table V

func runTable5(opt Options, _ *shared) error {
	fmt.Fprintln(opt.Out, "Table V — power and area of the accelerator components (published constants)")
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "component\t#\tstatic mW\tdynamic mW\ttotal mW\tarea mm²")
	for _, c := range energy.TableV() {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.1f\t%.2f\n",
			c.Name, c.Units, c.StaticMW, c.DynamicMW, c.TotalMW(), c.AreaMM2)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	rows := energy.TableV()
	fmt.Fprintf(opt.Out, "total power %.2f W (queue-dominated); total area %.1f mm²; logic-only area %.2f mm²\n",
		energy.AcceleratorPowerWatts(rows, 1), energy.TotalAreaMM2(rows),
		rows[2].AreaMM2+rows[3].AreaMM2)
	return nil
}

// ---------------------------------------------------------------- Energy

func runEnergy(opt Options, in *shared) error {
	sweep := in.sweep
	fmt.Fprintf(opt.Out, "Energy efficiency vs software baseline (Section VI-C, %s tier)\n", sweep.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "app\tgraph\taccel J\tCPU J (modeled 12-core)\tefficiency")
	for _, c := range sweep.Cells {
		if c.Failed() {
			failedRow(tw, c)
			continue
		}
		aj, cj := c.Energy()
		fmt.Fprintf(tw, "%s\t%s\t%.3g\t%.3g\t%.0fx\n",
			c.Workload.AlgName, c.Workload.Dataset.Abbrev, aj, cj, cj/aj)
	}
	fmt.Fprintf(tw, "geomean\t\t\t\t%.0fx\n", sweep.Geomean((*Cell).EnergyEfficiency))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(opt.Out, "paper: 280x better energy efficiency than the software framework")
	return nil
}

// ---------------------------------------------------------------- Slicing

func runSlicing(opt Options, in *shared) error {
	w, ref, err := in.ljRun(opt)
	if err != nil {
		return err
	}
	// The 1-slice row is the shared run; the sliced runs go to the pool.
	slices := []int{2, 3, 4}
	res := make([]*core.Result, len(slices))
	errs := make([]error, len(slices))
	runPool(opt, len(slices), func(i int) {
		v := *w
		v.sliceInto = slices[i]
		res[i], errs[i] = runSim(core.OptimizedConfig(), &v, opt)
	})
	fmt.Fprintf(opt.Out, "Slicing ablation (Section IV-F) — %s on %s (%s tier)\n",
		algorithmTitle[w.AlgName], w.Dataset.Abbrev, opt.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "slices\tcycles\tslowdown\tspilled events\toff-chip accesses\tswitches")
	row := func(r *core.Result) {
		fmt.Fprintf(tw, "%d\t%d\t%.2fx\t%d\t%d\t%d\n",
			r.Slices, r.Cycles, float64(r.Cycles)/float64(ref.Cycles),
			r.SpilledEvents, r.OffChipAccesses(), r.SliceSwitches)
	}
	row(ref)
	for i, err := range errs {
		if err != nil {
			return err
		}
		row(res[i])
	}
	return tw.Flush()
}

// ---------------------------------------------------------------- Ablation

// ablationCap bounds every ablation variant to this multiple of the
// reference's cycles. The coalescing-off variant blows up its event
// population without bound (the paper's point: coalescing "is critical for
// a practical asynchronous design") and reports DNF at the cap; every other
// variant finishes well inside it.
const ablationCap = 8

func runAblation(opt Options, in *shared) error {
	w, ref, err := in.ljRun(opt)
	if err != nil {
		return err
	}
	type variant struct {
		name string
		mut  func(*core.Config)
	}
	variants := []variant{
		{"no vertex prefetch", func(c *core.Config) { c.Prefetch = false }},
		{"coupled generation", func(c *core.Config) {
			c.DecoupledGeneration = false
			c.StreamsPerProcessor = 0
		}},
		{"1 gen stream/proc", func(c *core.Config) { c.StreamsPerProcessor = 1 }},
		{"2 gen streams/proc", func(c *core.Config) { c.StreamsPerProcessor = 2 }},
		{"8 gen streams/proc", func(c *core.Config) { c.StreamsPerProcessor = 8 }},
		{"16 bins", func(c *core.Config) { c.NumBins = 16 }},
		{"256 bins", func(c *core.Config) { c.NumBins = 256 }},
		{"coalescing disabled", func(c *core.Config) { c.CoalesceDisabled = true }},
		{"1 DRAM channel", func(c *core.Config) { c.Memory.Channels = 1 }},
		{"densest-first schedule", func(c *core.Config) { c.Schedule = core.ScheduleDensestFirst }},
		{"bin-row-col mapping", func(c *core.Config) { c.Mapping = core.MapBinRowCol }},
		{"global termination 1e-2", func(c *core.Config) { c.GlobalProgressThreshold = 1e-2 }},
	}
	// The reference row is the shared run; every variant runs on the pool,
	// capped at ablationCap times the reference's cycles.
	capped := *w
	capped.MaxCycles = ablationCap * ref.Cycles
	res := make([]*core.Result, len(variants))
	errs := make([]error, len(variants))
	runPool(opt, len(variants), func(i int) {
		cfg := core.OptimizedConfig()
		variants[i].mut(&cfg)
		res[i], errs[i] = runSim(cfg, &capped, opt)
	})
	fmt.Fprintf(opt.Out, "Design ablations — %s on %s (%s tier)\n",
		algorithmTitle[w.AlgName], w.Dataset.Abbrev, opt.Tier)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "variant\tcycles\tslowdown\tevents processed\toff-chip accesses")
	row := func(name string, r *core.Result) {
		fmt.Fprintf(tw, "%s\t%d\t%.2fx\t%d\t%d\n",
			name, r.Cycles, float64(r.Cycles)/float64(ref.Cycles),
			r.EventsProcessed, r.OffChipAccesses())
	}
	row("optimized (reference)", ref)
	for i, v := range variants {
		switch err := errs[i]; {
		case errors.Is(err, sim.ErrDeadline):
			fmt.Fprintf(tw, "%s\tDNF\t>%dx\t\t\n", v.name, ablationCap)
		case err != nil:
			return fmt.Errorf("bench: ablation %q: %w", v.name, err)
		default:
			row(v.name, res[i])
		}
	}
	return tw.Flush()
}

// RunExperiments executes the selected experiment ids (nil = all) with a
// shared sweep for the figures that need one.
func RunExperiments(ids []string, opt Options) error {
	if opt.Out == nil {
		opt.Out = io.Discard
	}
	var selected []Experiment
	if len(ids) == 0 {
		selected = Experiments()
	} else {
		for _, id := range ids {
			e, err := ExperimentByID(id)
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	in := &shared{}
	for _, e := range selected {
		if e.NeedsSweep && in.sweep == nil {
			fmt.Fprintf(opt.Out, "[running %s-tier engine sweep × 4 engines]\n", opt.Tier)
			if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "[sweep: %d workers]\n", opt.workers())
			}
			start := time.Now()
			sweep, err := RunSweep(opt)
			if err != nil {
				return err
			}
			in.sweep = sweep
			// The elapsed time goes to the progress stream, not Out, so
			// that Out stays byte-identical across runs and -parallel
			// settings.
			if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "[sweep done in %s]\n", time.Since(start).Round(time.Millisecond))
			}
			if n := sweep.FailedCells(); n > 0 {
				fmt.Fprintf(opt.Out, "[%d of %d cells FAILED; affected rows are marked below]\n", n, len(sweep.Cells))
			}
			fmt.Fprintln(opt.Out)
			if opt.CSVPath != "" {
				if err := writeSweepCSV(opt.CSVPath, sweep); err != nil {
					return err
				}
				fmt.Fprintf(opt.Out, "[sweep written to %s]\n\n", opt.CSVPath)
			}
		}
		fmt.Fprintf(opt.Out, "==== %s — %s ====\n", e.ID, e.Title)
		if err := e.Run(opt, in); err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		fmt.Fprintln(opt.Out)
	}
	return nil
}
