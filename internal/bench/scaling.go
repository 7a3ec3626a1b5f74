package bench

import (
	"fmt"
	"runtime"
	"time"

	"graphpulse/internal/engines"
	"graphpulse/internal/psolve"
)

// scalingReps is how many times each timed job runs; the minimum is
// reported, the standard defense against scheduler noise in wall-clock
// microbenchmarks.
const scalingReps = 3

// scalingWorkerCounts returns the shard counts the psolve sweep visits:
// powers of two through 8, extended to GOMAXPROCS when the host is wider.
func scalingWorkerCounts() []int {
	counts := []int{1, 2, 4, 8}
	if p := runtime.GOMAXPROCS(0); p > 8 {
		counts = append(counts, p)
	}
	return counts
}

// runScaling measures the native solvers' wall-clock scaling: the serial
// worklist solver as the 1.00x baseline, then psolve across worker counts,
// plus any other registry engines selected with Options.Engines. Unlike the
// cycle-level experiments these are host timings (like Figure 10's Ligra
// column), so absolute numbers vary by machine; the reproduction target is
// the speedup curve's shape on a multi-core host. The tracked number is
// psolve.wn_vs_serial_x in perf/.
func runScaling(opt Options, _ *Sweep) error {
	selected := opt.Engines
	if len(selected) == 0 {
		selected = []string{engines.Solve, engines.PSolve}
	}
	var names []string
	for _, n := range selected {
		cn, err := engines.Normalize(n)
		if err != nil {
			return err
		}
		names = append(names, cn)
	}

	o := opt
	o.Datasets = []string{"WG"}
	if len(opt.Datasets) > 0 {
		o.Datasets = opt.Datasets[:1]
	}
	o.Algorithms = []string{"pr"}
	if len(opt.Algorithms) > 0 {
		o.Algorithms = opt.Algorithms[:1]
	}
	ws, err := Workloads(o)
	if err != nil {
		return err
	}
	w := ws[0]

	serialSecs, err := timeEngine(opt, w, engines.Solve)
	if err != nil {
		return err
	}

	fmt.Fprintf(opt.Out, "Scaling — native solver speedup vs worker count, %s on %s-class graph (%s tier)\n",
		algorithmTitle[w.AlgName], w.Dataset.Abbrev, opt.Tier)
	fmt.Fprintf(opt.Out, "host GOMAXPROCS=%d; wall-clock, best of %d runs; speedup vs serial solve\n",
		runtime.GOMAXPROCS(0), scalingReps)
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "engine\tworkers\trelabel\tseconds\tspeedup\txshard deltas\tbatches\trounds\tcut edges")

	for _, name := range names {
		switch name {
		case engines.Solve:
			fmt.Fprintf(tw, "solve\t1\t-\t%.4f\t%.2fx\t-\t-\t-\t-\n", serialSecs, 1.0)
		case engines.PSolve:
			// Each worker count runs twice: the raw contiguous split
			// (relabel off) and the default degree-order locality pass —
			// the before/after view of the cross-shard counters.
			for _, workers := range scalingWorkerCounts() {
				for _, noRelabel := range []bool{true, false} {
					if workers == 1 && !noRelabel {
						continue // single shard: relabeling is skipped
					}
					secs, res, err := timePSolve(opt, w, workers, noRelabel)
					if err != nil {
						return err
					}
					label := "on"
					if noRelabel {
						label = "off"
					}
					fmt.Fprintf(tw, "psolve\t%d\t%s\t%.4f\t%.2fx\t%d\t%d\t%d\t%d\n",
						res.Workers, label, secs, serialSecs/secs,
						res.CrossShardDeltas, res.CrossShardBatches,
						res.TerminationRounds, res.CutEdges)
				}
			}
		default:
			secs, err := timeEngine(opt, w, name)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t-\t-\t%.4f\t%.2fx\t-\t-\t-\t-\n", name, secs, serialSecs/secs)
		}
	}
	return tw.Flush()
}

// timeEngine runs one registry engine scalingReps times over the workload
// and returns the best wall time in seconds.
func timeEngine(opt Options, w *Workload, name string) (float64, error) {
	eng, err := engines.Lookup(name)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for i := 0; i < scalingReps; i++ {
		ctx, cancel := opt.jobContext()
		start := time.Now()
		_, err := eng.SolveCtx(ctx, w.Graph, w.NewAlgorithm())
		secs := time.Since(start).Seconds()
		cancel()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if i == 0 || secs < best {
			best = secs
		}
	}
	return best, nil
}

// timePSolve runs the parallel solver at a fixed worker count scalingReps
// times and returns the best wall time plus the last run's counters (the
// counters for monotone work are schedule-dependent only in their split,
// not their totals, and any run is representative).
func timePSolve(opt Options, w *Workload, workers int, noRelabel bool) (float64, *psolve.Result, error) {
	cfg := psolve.DefaultConfig()
	cfg.Workers = workers
	cfg.NoRelabel = noRelabel
	best := 0.0
	var res *psolve.Result
	for i := 0; i < scalingReps; i++ {
		ctx, cancel := opt.jobContext()
		start := time.Now()
		r, err := psolve.SolveCtx(ctx, w.Graph, w.NewAlgorithm(), cfg)
		secs := time.Since(start).Seconds()
		cancel()
		if err != nil {
			return 0, nil, fmt.Errorf("psolve[w=%d]: %w", workers, err)
		}
		res = r
		if i == 0 || secs < best {
			best = secs
		}
	}
	return best, res, nil
}
