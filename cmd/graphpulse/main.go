// Command graphpulse runs one algorithm over one graph on a chosen engine
// and reports the converged values and architecture measurements.
//
// Usage:
//
//	graphpulse -alg sssp -root 3 -graph web.el            # accelerator (optimized)
//	graphpulse -alg pr -engine ligra -rmat 16x12          # host software baseline
//	graphpulse -alg cc -engine graphicionado -rmat 14x8   # BSP accelerator model
//	graphpulse -alg bfs -engine solve -graph wg.graphpack # reference worklist solver
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
// -cpuprofile/-memprofile write Go pprof profiles of the simulator itself.
//
// Resumable runs (README "Event-conservation watchdog and resumable runs"):
//
//	graphpulse -alg sssp -rmat 16x12 -checkpoint run.ck        # periodic checkpoints
//	graphpulse -alg sssp -rmat 16x12 -resume run.ck            # continue from one
//	graphpulse -alg pr -rmat 20x16 -timeout 5m                 # wall-clock bound
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphpulse"
	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph source: graphpack container, edge-list file, or ABBREV:tier")
		rmat      = flag.String("rmat", "", "generate an R-MAT graph, format SCALExEDGEFACTOR (e.g. 16x12)")
		seed      = flag.Int64("seed", 42, "generator seed")
		algName   = flag.String("alg", "pr", "algorithm: "+algorithms.NamesList())
		root      = flag.Uint("root", 0, "root vertex for rooted algorithms")
		engine    = flag.String("engine", "accel", "engine: accel|accel-base|ligra|graphicionado|solve")
		slices    = flag.Int("slices", 1, "force partitioned accelerator execution into N slices")
		top       = flag.Int("top", 5, "print the N highest-valued vertices")
		stats     = flag.Bool("stats", true, "print architecture measurements")
		telPrefix = flag.String("telemetry", "", "write time-series telemetry to PREFIX.csv and PREFIX.trace.json (simulated engines only)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		ckPath    = flag.String("checkpoint", "", "periodically write a restartable checkpoint to this file (accel engines only)")
		ckEvery   = flag.Uint64("checkpoint-every", 1_000_000, "cycles between checkpoints (with -checkpoint)")
		resumeCk  = flag.String("resume", "", "resume an accel run from a checkpoint file (same graph/alg/config required)")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit for simulated engines (0 = unbounded)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	g, err := loadGraph(*graphPath, *rmat, *seed)
	if err != nil {
		fail(err)
	}
	alg, err := makeAlg(*algName, graphpulse.VertexID(*root), g)
	if err != nil {
		fail(err)
	}
	fmt.Printf("graph: %d vertices, %d edges; algorithm: %s; engine: %s\n",
		g.NumVertices(), g.NumEdges(), alg.Name(), *engine)

	opts := graphpulse.RunOptions{}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Ctx = ctx
	}

	var values []float64
	switch *engine {
	case "accel", "accel-base":
		cfg := graphpulse.OptimizedConfig()
		if *engine == "accel-base" {
			cfg = graphpulse.BaselineConfig()
		}
		if *slices > 1 {
			cfg.QueueCapacity = (g.NumVertices() + *slices - 1) / *slices
		}
		if *telPrefix != "" {
			cfg.Telemetry = graphpulse.DefaultTelemetryConfig()
		}
		if *ckPath != "" {
			opts.CheckpointEvery = *ckEvery
			opts.OnCheckpoint = func(ck *graphpulse.Checkpoint) error {
				return graphpulse.WriteCheckpoint(*ckPath, ck)
			}
		}
		var res *graphpulse.Result
		if *resumeCk != "" {
			ck, err := graphpulse.ReadCheckpoint(*resumeCk)
			if err != nil {
				fail(err)
			}
			fmt.Printf("resuming from %s: cycle %d, round %d, %d queued + %d spilled events\n",
				*resumeCk, ck.Cycle, ck.Round, len(ck.Queue), spillTotal(ck))
			res, err = graphpulse.ResumeFromCheckpoint(cfg, g, alg, ck, opts)
			if err != nil {
				fail(err)
			}
		} else {
			if res, err = graphpulse.RunWith(cfg, g, alg, opts); err != nil {
				fail(err)
			}
		}
		values = res.Values
		if *stats {
			fmt.Printf("cycles: %d (%.3f ms at 1 GHz); rounds: %d; slices: %d\n",
				res.Cycles, res.Seconds*1e3, res.Rounds, res.Slices)
			fmt.Printf("events: processed %d, emitted %d, coalesced %d (%.1f%%)\n",
				res.EventsProcessed, res.EventsEmitted, res.EventsCoalesced,
				100*float64(res.EventsCoalesced)/float64(res.EventsEmitted+1))
			fmt.Printf("off-chip: %d reads, %d writes, %.1f%% of bytes utilized\n",
				res.MemReads, res.MemWrites, 100*res.Utilization)
		}
		if *telPrefix != "" {
			writeTelemetry(res.Telemetry, *telPrefix, cfg.ClockHz)
		}
	case "ligra":
		start := time.Now()
		res := graphpulse.RunLigra(graphpulse.DefaultLigraConfig(), g, alg)
		wall := time.Since(start)
		values = res.Values
		if *stats {
			fmt.Printf("wall time: %v; iterations: %d (push %d / pull %d); edges traversed: %d\n",
				wall, res.Iterations, res.PushIterations, res.PullIterations, res.EdgesTraversed)
		}
	case "graphicionado":
		gcfg := graphpulse.DefaultGraphicionadoConfig()
		if *telPrefix != "" {
			gcfg.Telemetry = graphpulse.DefaultTelemetryConfig()
		}
		res, err := graphpulse.RunGraphicionadoCtx(opts.Ctx, gcfg, g, alg)
		if err != nil {
			fail(err)
		}
		values = res.Values
		if *stats {
			fmt.Printf("cycles: %d (%.3f ms at 1 GHz); iterations: %d; edge reads: %d\n",
				res.Cycles, res.Seconds*1e3, res.Iterations, res.MemReads)
		}
		if *telPrefix != "" {
			writeTelemetry(res.Telemetry, *telPrefix, gcfg.ClockHz)
		}
	case "solve":
		start := time.Now()
		res := graphpulse.Solve(g, alg)
		wall := time.Since(start)
		values = res.Values
		if *stats {
			fmt.Printf("wall time: %v; activations: %d; emitted: %d\n", wall, res.Activations, res.Emitted)
		}
	default:
		fail(fmt.Errorf("unknown engine %q", *engine))
	}
	if *telPrefix != "" && (*engine == "ligra" || *engine == "solve") {
		fmt.Fprintf(os.Stderr, "graphpulse: -telemetry is ignored for the host-native %s engine\n", *engine)
	}

	printTop(values, *top)

	if *memProf != "" {
		runtime.GC()
		f, err := os.Create(*memProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}

// writeTelemetry exports a run's sampled series (Recorder.WriteFiles) and
// reports where they went.
func writeTelemetry(rec *graphpulse.Telemetry, prefix string, clockHz float64) {
	csvPath, tracePath, err := rec.WriteFiles(prefix, clockHz)
	if err != nil {
		fail(err)
	}
	fmt.Printf("telemetry: %d series × %d samples (%d-cycle interval) → %s, %s\n",
		len(rec.Series()), rec.SampleCount(), rec.Interval(), csvPath, tracePath)
}

// spillTotal counts a checkpoint's spilled events across slices.
func spillTotal(ck *graphpulse.Checkpoint) int {
	n := 0
	for _, s := range ck.Spill {
		n += len(s)
	}
	return n
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

func printTop(values []float64, n int) {
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
	fmt.Printf("top %d vertices:\n", n)
	for _, e := range all[:n] {
		fmt.Printf("  v%-10d %g\n", e.v, e.x)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "graphpulse: %v\n", err)
	os.Exit(1)
}
