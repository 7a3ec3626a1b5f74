// Command graphpulse runs one algorithm over one graph on a chosen engine
// and reports the converged values and architecture measurements.
//
// Usage:
//
//	graphpulse -alg sssp -root 3 -graph web.el            # accelerator (optimized)
//	graphpulse -alg pr -engine ligra -rmat 16x12          # host software baseline
//	graphpulse -alg cc -engine graphicionado -rmat 14x8   # BSP accelerator model
//	graphpulse -alg bfs -engine solve -graph wg.graphpack # reference worklist solver
//	graphpulse -alg pr -rmat 20x16 -timeout 5m            # wall-clock bound
//
// Graphs come from -graph or -rmat SCALExEDGEFACTOR (deterministic
// synthetic). -graph takes a graphpack container (cmd/graphpack; sniffed by
// extension or magic and decoded whole into RAM), or any other gen.Load
// source: a text edge-list file or a Table IV "ABBREV:tier" stand-in.
// -top prints the N highest-valued vertices.
//
// -telemetry PREFIX samples the simulated engines (accel, accel-base,
// graphicionado) every 512 cycles and writes PREFIX.csv plus
// PREFIX.trace.json — the latter loads in chrome://tracing and Perfetto
// (see METRICS.md and EXPERIMENTS.md "Time-resolved figures").
// -cpuprofile/-memprofile write Go pprof profiles of the simulator itself;
// both are written whether or not the run succeeds. -timeout bounds the
// simulated engines by wall clock; a run is not resumable mid-way (cmd/bench
// -manifest resumes a sweep job by job).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphpulse"
	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/profile"
)

// options is everything the command line decides.
type options struct {
	graphPath, rmat, alg, engine, telemetry, cpuProf, memProf string
	seed                                                      int64
	root                                                      uint
	slices, top                                               int
	stats                                                     bool
	timeout                                                   time.Duration
}

// parseFlagSet defines graphpulse's flags on fs and parses args with it.
func parseFlagSet(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.graphPath, "graph", "", "graph source: graphpack container, edge-list file, or ABBREV:tier")
	fs.StringVar(&o.rmat, "rmat", "", "generate an R-MAT graph, format SCALExEDGEFACTOR (e.g. 16x12)")
	fs.Int64Var(&o.seed, "seed", 42, "generator seed")
	fs.StringVar(&o.alg, "alg", "pr", "algorithm: "+algorithms.NamesList())
	fs.UintVar(&o.root, "root", 0, "root vertex for rooted algorithms")
	fs.StringVar(&o.engine, "engine", "accel", "engine: accel|accel-base|ligra|graphicionado|solve")
	fs.IntVar(&o.slices, "slices", 1, "force partitioned accelerator execution into N slices")
	fs.IntVar(&o.top, "top", 5, "print the N highest-valued vertices")
	fs.BoolVar(&o.stats, "stats", true, "print architecture measurements")
	fs.StringVar(&o.telemetry, "telemetry", "", "write time-series telemetry to PREFIX.csv and PREFIX.trace.json (simulated engines only)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the simulator to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file at exit")
	fs.DurationVar(&o.timeout, "timeout", 0, "wall-clock limit for simulated engines (0 = unbounded)")
	return o, fs.Parse(args)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "graphpulse: %v\n", err)
		os.Exit(1)
	}
}

// run is main's body, returning instead of exiting so the profile defers
// execute on a failed run too.
func run(args []string, stdout, stderr io.Writer) (err error) {
	o, _ := parseFlagSet(flag.NewFlagSet("graphpulse", flag.ExitOnError), args) // ExitOnError: exits 2 on a bad flag

	stop, err := profile.Start(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stop(); err == nil {
			err = perr
		}
	}()

	g, err := loadGraph(o.graphPath, o.rmat, o.seed)
	if err != nil {
		return err
	}
	alg, err := makeAlg(o.alg, graphpulse.VertexID(o.root), g)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %d vertices, %d edges; algorithm: %s; engine: %s\n",
		g.NumVertices(), g.NumEdges(), alg.Name(), o.engine)

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	var values []float64
	var tel *graphpulse.Telemetry // a simulated engine's series under -telemetry
	var clockHz float64
	switch o.engine {
	case "accel", "accel-base":
		cfg := graphpulse.OptimizedConfig()
		if o.engine == "accel-base" {
			cfg = graphpulse.BaselineConfig()
		}
		if o.slices > 1 {
			cfg.QueueCapacity = (g.NumVertices() + o.slices - 1) / o.slices
		}
		if o.telemetry != "" {
			cfg.Telemetry = graphpulse.DefaultTelemetryConfig()
		}
		res, err := graphpulse.RunCtx(ctx, cfg, g, alg)
		if err != nil {
			return err
		}
		values = res.Values
		if o.stats {
			fmt.Fprintf(stdout, "cycles: %d (%.3f ms at 1 GHz); rounds: %d; slices: %d\n",
				res.Cycles, res.Seconds*1e3, res.Rounds, res.Slices)
			fmt.Fprintf(stdout, "events: processed %d, emitted %d, coalesced %d (%.1f%%)\n",
				res.EventsProcessed, res.EventsEmitted, res.EventsCoalesced,
				100*float64(res.EventsCoalesced)/float64(res.EventsEmitted+1))
			fmt.Fprintf(stdout, "off-chip: %d reads, %d writes, %.1f%% of bytes utilized\n",
				res.MemReads, res.MemWrites, 100*res.Utilization)
		}
		tel, clockHz = res.Telemetry, cfg.ClockHz
	case "ligra":
		start := time.Now()
		res := graphpulse.RunLigra(graphpulse.DefaultLigraConfig(), g, alg)
		wall := time.Since(start)
		values = res.Values
		if o.stats {
			fmt.Fprintf(stdout, "wall time: %v; iterations: %d (push %d / pull %d); edges traversed: %d\n",
				wall, res.Iterations, res.PushIterations, res.PullIterations, res.EdgesTraversed)
		}
	case "graphicionado":
		gcfg := graphpulse.DefaultGraphicionadoConfig()
		if o.telemetry != "" {
			gcfg.Telemetry = graphpulse.DefaultTelemetryConfig()
		}
		res, err := graphpulse.RunGraphicionadoCtx(ctx, gcfg, g, alg)
		if err != nil {
			return err
		}
		values = res.Values
		if o.stats {
			fmt.Fprintf(stdout, "cycles: %d (%.3f ms at 1 GHz); iterations: %d; edge reads: %d\n",
				res.Cycles, res.Seconds*1e3, res.Iterations, res.MemReads)
		}
		tel, clockHz = res.Telemetry, gcfg.ClockHz
	case "solve":
		start := time.Now()
		res := graphpulse.Solve(g, alg)
		wall := time.Since(start)
		values = res.Values
		if o.stats {
			fmt.Fprintf(stdout, "wall time: %v; activations: %d; emitted: %d\n", wall, res.Activations, res.Emitted)
		}
	default:
		return fmt.Errorf("unknown engine %q", o.engine)
	}
	if tel != nil {
		if err := writeTelemetry(stdout, tel, o.telemetry, clockHz); err != nil {
			return err
		}
	} else if o.telemetry != "" {
		fmt.Fprintf(stderr, "graphpulse: -telemetry is ignored for the host-native %s engine\n", o.engine)
	}

	printTop(stdout, values, o.top)
	return nil
}

// writeTelemetry exports a run's sampled series (Recorder.WriteFiles) and
// reports where they went.
func writeTelemetry(w io.Writer, rec *graphpulse.Telemetry, prefix string, clockHz float64) error {
	csvPath, tracePath, err := rec.WriteFiles(prefix, clockHz)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "telemetry: %d series × %d samples (%d-cycle interval) → %s, %s\n",
		len(rec.Series()), rec.SampleCount(), rec.Interval(), csvPath, tracePath)
	return nil
}

func loadGraph(path, rmat string, seed int64) (*graphpulse.Graph, error) {
	switch {
	case path != "" && rmat != "":
		return nil, fmt.Errorf("use -graph or -rmat, not both")
	case path != "" && ooc.IsPack(path):
		return ooc.ReadCSR(path)
	case path != "":
		return gen.Load(path, gen.Default)
	case rmat != "":
		parts := strings.SplitN(rmat, "x", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -rmat %q, want SCALExEDGEFACTOR", rmat)
		}
		scale, err1 := strconv.Atoi(parts[0])
		ef, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad -rmat %q", rmat)
		}
		return graphpulse.GenerateRMAT(graphpulse.RMATParams{
			A: 0.57, B: 0.19, C: 0.19, D: 0.05,
			Scale: scale, EdgeFactor: ef, Weighted: true, Seed: seed,
			NoiseAmount: 0.1,
		})
	default:
		return nil, fmt.Errorf("provide -graph FILE or -rmat SCALExEDGEFACTOR")
	}
}

func makeAlg(name string, root graphpulse.VertexID, g *graphpulse.Graph) (graphpulse.Algorithm, error) {
	if int(root) >= g.NumVertices() {
		return nil, fmt.Errorf("root %d out of range (n=%d)", root, g.NumVertices())
	}
	return algorithms.ByName(name, root)
}

func printTop(w io.Writer, values []float64, n int) {
	if n <= 0 {
		return
	}
	type vv struct {
		v graphpulse.VertexID
		x float64
	}
	all := make([]vv, len(values))
	for i, x := range values {
		all[i] = vv{graphpulse.VertexID(i), x}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].x > all[j].x })
	if n > len(all) {
		n = len(all)
	}
	fmt.Fprintf(w, "top %d vertices:\n", n)
	for _, e := range all[:n] {
		fmt.Fprintf(w, "  v%-10d %g\n", e.v, e.x)
	}
}
