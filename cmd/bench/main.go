// Command bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bench [-exp fig10,fig11] [-tier tiny|mini|full] [-datasets LJ,WG] [-algs pr,bfs]
//	      [-parallel N] [-progress] [-timeout 10m] [-manifest run.json] [-resume]
//
// With no -exp it runs every experiment in paper order. Tier controls
// workload scale: tiny (seconds, default), mini (minutes), full
// (paper-scale; hours and tens of GB for the TW-class workload).
// -parallel bounds the worker pool every simulated run goes through: the
// engine sweep's jobs and the slicing and ablation variants (default
// GOMAXPROCS). -progress prints per-cell completion lines to stderr.
// Ligra's time is the analytic 12-core-Xeon model of its run, never the
// host clock, so table and CSV output are byte-identical across runs and
// -parallel values.
//
// Long sweeps are resilient: -timeout bounds every simulated run (an
// overrunning sweep job records a structured failure in its cell instead
// of wedging the sweep), -manifest records every completed sweep job to a
// JSON file rewritten atomically after each one, and -resume restores
// those jobs on the next run instead of re-measuring them — the resumed
// CSV and tables are byte-identical to an uninterrupted run.
//
// -telemetry PREFIX makes the timeline experiment export its time series as
// PREFIX.csv and PREFIX.trace.json (Chrome trace_event; loads in Perfetto —
// see EXPERIMENTS.md "Time-resolved figures" and METRICS.md).
// -cpuprofile/-memprofile write Go pprof profiles of the harness itself;
// both are written whether or not the experiments succeed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/bench"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/profile"
)

// options is everything the command line decides; run fills in the rest
// of bench.Options (Tier, Datasets, Algorithms, Out, Progress).
type options struct {
	exp, tier, datasets, algs string
	list, progress            bool
	cpuProf, memProf          string
	bench                     bench.Options
}

// parseFlagSet defines bench's flags on fs and parses args with it.
func parseFlagSet(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	b := &o.bench
	fs.StringVar(&o.exp, "exp", "", "comma-separated experiment ids (default: all)")
	fs.StringVar(&o.tier, "tier", "tiny", "workload scale: "+gen.TierList())
	fs.StringVar(&o.datasets, "datasets", "", "comma-separated Table IV abbreviations (WG,FB,WK,LJ,TW)")
	fs.StringVar(&o.algs, "algs", "", "comma-separated algorithms of "+algorithms.NamesList()+" (default: "+strings.Join(bench.AlgorithmNames, ",")+")")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&b.CSVPath, "csv", "", "also write the engine sweep as CSV to this path")
	fs.IntVar(&b.Parallel, "parallel", 0, "workers running the simulated runs: sweep jobs and slicing/ablation variants (0 = GOMAXPROCS)")
	fs.BoolVar(&o.progress, "progress", false, "print per-cell completion lines with elapsed time to stderr")
	fs.StringVar(&b.TelemetryPath, "telemetry", "", "write the timeline experiment's series to PREFIX.csv and PREFIX.trace.json")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the harness to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file at exit")
	fs.DurationVar(&b.Timeout, "timeout", 0, "wall-clock limit per simulated run (0 = unbounded)")
	fs.StringVar(&b.Manifest, "manifest", "", "maintain a resumable run manifest (JSON, rewritten atomically after each sweep job)")
	fs.BoolVar(&b.Resume, "resume", false, "restore completed jobs from the -manifest file instead of re-running them")
	return o, fs.Parse(args)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a bad flag value; main exits 2 for it, as flag parsing does.
type usageError struct{ error }

// run is main's body, returning instead of exiting so the profile defers
// execute on a failed sweep too.
func run(args []string, stdout, stderr io.Writer) (err error) {
	o, _ := parseFlagSet(flag.NewFlagSet("bench", flag.ExitOnError), args) // ExitOnError: exits 2 on a bad flag

	if o.list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	tier, err := gen.ParseTier(o.tier)
	if err != nil {
		return usageError{err}
	}

	stop, err := profile.Start(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stop(); err == nil {
			err = perr
		}
	}()

	opt := o.bench
	opt.Tier = tier
	opt.Datasets = splitList(o.datasets)
	opt.Algorithms = splitList(o.algs)
	opt.Out = stdout
	if o.progress {
		opt.Progress = stderr
	}
	return bench.RunExperiments(splitList(o.exp), opt)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
