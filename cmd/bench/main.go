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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/bench"
	"graphpulse/internal/graph/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// run is main's body, returning instead of exiting so the profile defers
// execute on a failed sweep too.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		expFlag      = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		tierFlag     = fs.String("tier", "tiny", "workload scale: "+gen.TierList())
		datasetFlag  = fs.String("datasets", "", "comma-separated Table IV abbreviations (WG,FB,WK,LJ,TW)")
		algFlag      = fs.String("algs", "", "comma-separated algorithms of "+algorithms.NamesList()+" (default: "+strings.Join(bench.AlgorithmNames, ",")+")")
		listFlag     = fs.Bool("list", false, "list experiment ids and exit")
		csvFlag      = fs.String("csv", "", "also write the engine sweep as CSV to this path")
		parallelFlag = fs.Int("parallel", 0, "workers running the simulated runs: sweep jobs and slicing/ablation variants (0 = GOMAXPROCS)")
		progressFlag = fs.Bool("progress", false, "print per-cell completion lines with elapsed time to stderr")
		telFlag      = fs.String("telemetry", "", "write the timeline experiment's series to PREFIX.csv and PREFIX.trace.json")
		cpuProfFlag  = fs.String("cpuprofile", "", "write a CPU profile of the harness to this file")
		memProfFlag  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		timeoutFlag  = fs.Duration("timeout", 0, "wall-clock limit per simulated run (0 = unbounded)")
		manifestFlag = fs.String("manifest", "", "maintain a resumable run manifest (JSON, rewritten atomically after each sweep job)")
		resumeFlag   = fs.Bool("resume", false, "restore completed jobs from the -manifest file instead of re-running them")
	)
	fs.Parse(args) // ExitOnError: like the tier check, exits 2 before anything is deferred

	if *listFlag {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	tier, err := gen.ParseTier(*tierFlag)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		os.Exit(2)
	}

	if *cpuProfFlag != "" {
		f, err := os.Create(*cpuProfFlag)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memProfFlag != "" {
		defer func() {
			if perr := writeHeapProfile(*memProfFlag); err == nil {
				err = perr
			}
		}()
	}

	opt := bench.Options{
		Tier:          tier,
		Datasets:      splitList(*datasetFlag),
		Algorithms:    splitList(*algFlag),
		Out:           stdout,
		CSVPath:       *csvFlag,
		Parallel:      *parallelFlag,
		TelemetryPath: *telFlag,
		Timeout:       *timeoutFlag,
		Manifest:      *manifestFlag,
		Resume:        *resumeFlag,
	}
	if *progressFlag {
		opt.Progress = stderr
	}
	return bench.RunExperiments(splitList(*expFlag), opt)
}

func writeHeapProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
