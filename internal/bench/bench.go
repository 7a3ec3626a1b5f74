// Package bench regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment is addressable by the paper's
// artifact id (fig4, fig8, fig10–fig14, table1–table5, energy) plus
// repository-specific ablations (slicing, ablation).
//
// Results print as plain-text tables: the same rows/series the paper
// reports, produced from this repository's models. Absolute numbers differ
// from the paper (different substrate); the shapes — who wins, by roughly
// what factor, where the crossovers fall — are the reproduction target
// (see EXPERIMENTS.md).
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/core"
	"graphpulse/internal/energy"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/partition"
)

// Options configure an experiment run.
type Options struct {
	// Tier selects workload scale (gen.Tiny for CI, gen.Mini for real
	// benchmarking, gen.Full for paper-scale runs).
	Tier gen.Tier
	// Datasets filters Table IV workloads by abbreviation (nil = all).
	Datasets []string
	// Algorithms filters by algorithms.Names short name (nil = the five
	// Figure 10 applications, AlgorithmNames).
	Algorithms []string
	// Out receives the rendered tables.
	Out io.Writer
	// MaxCycles overrides the simulation deadline (0 = config default).
	MaxCycles uint64
	// CSVPath, when set, receives the engine sweep as machine-readable CSV
	// (written once, after the sweep runs).
	CSVPath string
	// Parallel bounds the worker pool every run goes through: the sweep's
	// jobs, Ligra's included, and the slicing and ablation variants
	// (0 = GOMAXPROCS). Every result, and so every rendered table and the
	// CSV, is identical for every Parallel value.
	Parallel int
	// Progress, when non-nil, receives one line per completed job with
	// elapsed wall time. Line order is completion order, so it is only
	// deterministic at Parallel=1; keep it off a stream you diff.
	Progress io.Writer
	// TelemetryPath, when set, makes the timeline experiment export its
	// sampled series as <path>.csv and <path>.trace.json (Chrome
	// trace_event JSON; see METRICS.md).
	TelemetryPath string
	// Timeout bounds every simulated run (0 = unbounded). A sweep job that
	// exceeds it records a structured sim.ErrCanceled failure in its cell —
	// the sweep keeps going; any other run that exceeds it fails its
	// experiment. The Ligra job is not covered: ligra.Run takes no context,
	// so it has no cancellation points.
	Timeout time.Duration
	// Manifest, when set, names a JSON run manifest recording every
	// completed (workload × engine) sweep job and its measurements, rewritten
	// atomically after each job. A sweep killed mid-run loses at most the
	// jobs in flight.
	Manifest string
	// Resume, with Manifest set, restores completed jobs from an existing
	// manifest instead of re-running them (recorded failures are restored
	// too, keeping the output identical to the interrupted run's plan;
	// delete the manifest to re-measure). The manifest must match the
	// sweep's tier/datasets/algorithms/deadline signature.
	Resume bool
}

// jobContext returns the cancellation context of one simulated run
// (Background when no Timeout is set).
func (o Options) jobContext() (context.Context, context.CancelFunc) {
	if o.Timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), o.Timeout)
}

// workers resolves the sweep's pool size.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// AlgorithmNames lists the Figure 10 application order.
var AlgorithmNames = []string{"pr", "ads", "sssp", "bfs", "cc"}

// algorithmTitle maps the Figure 10 applications to the paper's captions.
var algorithmTitle = map[string]string{
	"pr":   "PageRank-Delta",
	"ads":  "Adsorption",
	"sssp": "Single Source Shortest Path",
	"bfs":  "Breadth-first Search",
	"cc":   "Connected Components",
}

// Workload is one prepared dataset×algorithm cell. Its Graph (and Root)
// come from the shared gen.Default cache, so the struct must be treated as
// immutable once built — concurrent jobs read it without synchronization.
type Workload struct {
	Dataset gen.DatasetSpec
	AlgName string
	Graph   *graph.CSR
	Root    graph.VertexID
	// MaxCycles, when >0, overrides the simulation deadline for this cell
	// only (takes precedence over Options.MaxCycles). Useful for bounding
	// a single known-slow cell — or, in tests, for forcing sim.ErrDeadline
	// in one cell to exercise failure isolation.
	MaxCycles uint64
	makeAlg   func() algorithms.Algorithm
	sliceInto int // >1 forces partitioned execution (TW)
}

// NewAlgorithm constructs a fresh algorithm instance for the cell (engines
// must not share instances across runs).
func (w *Workload) NewAlgorithm() algorithms.Algorithm { return w.makeAlg() }

// datasetFilter returns the selected Table IV specs.
func datasetFilter(names []string) ([]gen.DatasetSpec, error) {
	if len(names) == 0 {
		return gen.Datasets, nil
	}
	var out []gen.DatasetSpec
	for _, n := range names {
		d, err := gen.DatasetByAbbrev(n)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func algFilter(names []string) ([]string, error) {
	if len(names) == 0 {
		return AlgorithmNames, nil
	}
	for _, n := range names {
		if _, err := algorithms.ByName(n, 0); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// rootCache memoizes graph.BestRoot per (dataset, tier) so repeated Workloads
// calls (one per experiment that prepares its own workload) don't re-scan
// every vertex degree. Safe because the cached graph for a key is fixed.
var rootCache sync.Map // map[rootKey]graph.VertexID

type rootKey struct {
	abbrev string
	tier   gen.Tier
}

func cachedRoot(spec gen.DatasetSpec, t gen.Tier, g *graph.CSR) graph.VertexID {
	k := rootKey{spec.Abbrev, t}
	if v, ok := rootCache.Load(k); ok {
		return v.(graph.VertexID)
	}
	r := graph.BestRoot(g)
	rootCache.Store(k, r)
	return r
}

// benchGraph returns the bench-ready graph for (spec, tier) from the shared
// cache, along with its traversal root. For the TW-class workload that is
// the relabeled copy used for sliced execution; for everything else it is
// the base stand-in.
func benchGraph(spec gen.DatasetSpec, t gen.Tier) (*graph.CSR, graph.VertexID, error) {
	g, err := gen.Default.Get(spec, t, "bench", func() (*graph.CSR, error) {
		g, err := gen.Default.Generate(spec, t)
		if err != nil {
			return nil, err
		}
		if spec.Abbrev == "TW" {
			// The TW-class workload runs partitioned (3 slices, as in the
			// paper). Real datasets have community structure that keeps the
			// slice cut low; R-MAT stand-ins do not, so apply the BFS
			// locality relabeling first — every engine sees the same graph,
			// so the comparison stays fair.
			perm := partition.DegreeOrderPermutation(g)
			return g.Relabel(perm)
		}
		return g, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return g, cachedRoot(spec, t, g), nil
}

// normalizedGraph returns the inbound-normalized copy Adsorption runs on
// (Section VI-A), derived once from the bench graph and cached.
func normalizedGraph(spec gen.DatasetSpec, t gen.Tier) (*graph.CSR, error) {
	return gen.Default.Get(spec, t, "bench-inbound", func() (*graph.CSR, error) {
		g, _, err := benchGraph(spec, t)
		if err != nil {
			return nil, err
		}
		return g.NormalizeInbound(), nil
	})
}

// Workloads prepares the dataset×algorithm matrix for opt. Graph
// generation is deterministic and memoized in gen.Default, so each
// Table IV graph (and its inbound-normalized Adsorption copy) is built
// once per (spec, tier) and shared read-only across all cells. The
// TW-class workload is marked for 3-slice partitioned execution, as in
// the paper.
func Workloads(opt Options) ([]*Workload, error) {
	specs, err := datasetFilter(opt.Datasets)
	if err != nil {
		return nil, err
	}
	algs, err := algFilter(opt.Algorithms)
	if err != nil {
		return nil, err
	}
	var out []*Workload
	for _, spec := range specs {
		g, root, err := benchGraph(spec, opt.Tier)
		if err != nil {
			return nil, err
		}
		for _, a := range algs {
			w := &Workload{Dataset: spec, AlgName: a, Graph: g, Root: root}
			if spec.Abbrev == "TW" {
				w.sliceInto = 3
			}
			w.makeAlg = func() algorithms.Algorithm {
				alg, err := algorithms.ByName(a, root)
				if err != nil {
					panic(err) // algFilter resolved every name above
				}
				return alg
			}
			if a == "ads" {
				// Adsorption is defined on inbound-normalized weights.
				if w.Graph, err = normalizedGraph(spec, opt.Tier); err != nil {
					return nil, err
				}
			}
			out = append(out, w)
		}
	}
	return out, nil
}

// Cell is the measured result of one workload across all engines. Each
// engine's fragment is filled by its own Job; the per-engine error fields
// record structured failures (sim.ErrDeadline, recovered panics) instead
// of aborting the sweep, so one bad cell cannot take down a long run.
type Cell struct {
	Workload *Workload

	// LigraModelSeconds is the software baseline's time: the analytic
	// 12-core-Xeon estimate (ligra.ModelSeconds with ligra.PaperXeon) of
	// the run's access counts, independent of the host.
	LigraModelSeconds float64
	LigraIters        int

	Opt  *core.Result
	Base *core.Result
	Gion *graphicionado.Result

	// Per-engine job failures (nil = measured cleanly). These are distinct
	// struct fields, not a map, so concurrent jobs for the same cell can
	// record outcomes without synchronization.
	LigraErr error
	OptErr   error
	BaseErr  error
	GionErr  error
}

// EngineNames lists the per-cell measurement jobs in canonical order: the
// modelled software baseline, then the three simulated engines. The sweep
// queues them in this order; they complete in any order.
var EngineNames = []string{"ligra", "opt", "base", "gion"}

// engineErr returns the recorded failure for one engine job.
func (c *Cell) engineErr(engine string) error {
	switch engine {
	case "ligra":
		return c.LigraErr
	case "opt":
		return c.OptErr
	case "base":
		return c.BaseErr
	case "gion":
		return c.GionErr
	}
	return fmt.Errorf("bench: unknown engine %q", engine)
}

// Failed reports whether any engine job for this cell failed. A failed
// cell renders as "FAILED: <reason>" in the tables and is excluded from
// geomeans; its result pointers for the failed engines are nil.
func (c *Cell) Failed() bool {
	for _, e := range EngineNames {
		if c.engineErr(e) != nil {
			return true
		}
	}
	return false
}

// FailureReason describes the first failed engine job ("" if none).
func (c *Cell) FailureReason() string {
	for _, e := range EngineNames {
		if err := c.engineErr(e); err != nil {
			return fmt.Sprintf("%s: %v", e, err)
		}
	}
	return ""
}

// Speedups relative to the modeled 12-core Xeon (host-independent).
func (c *Cell) OptModelSpeedup() float64  { return c.LigraModelSeconds / c.Opt.Seconds }
func (c *Cell) BaseModelSpeedup() float64 { return c.LigraModelSeconds / c.Base.Seconds }
func (c *Cell) GionModelSpeedup() float64 { return c.LigraModelSeconds / c.Gion.Seconds }

// Energy returns Section VI-C's two energies for the cell: the accelerator
// running Table V's components for the simulated time, and the modeled
// 12-core Xeon for the software baseline's time.
func (c *Cell) Energy() (accelJ, cpuJ float64) {
	return energy.AcceleratorEnergyJoules(energy.TableV(), c.Opt.Seconds, 1),
		energy.CPUEnergyJoules(c.LigraModelSeconds)
}

// EnergyEfficiency is the energy table's ratio: CPU over accelerator energy.
func (c *Cell) EnergyEfficiency() float64 {
	aj, cj := c.Energy()
	return cj / aj
}

// Sweep holds the full engine×workload matrix shared by Figures 10–14 and
// the energy experiment.
type Sweep struct {
	Cells []*Cell
	Tier  gen.Tier
}

// FailedCells counts cells with at least one failed engine job.
func (s *Sweep) FailedCells() int {
	n := 0
	for _, c := range s.Cells {
		if c.Failed() {
			n++
		}
	}
	return n
}

// Geomean is the geometric mean of metric over the cells that did not
// fail: the summary row the tables print.
func (s *Sweep) Geomean(metric func(*Cell) float64) float64 {
	var xs []float64
	for _, c := range s.Cells {
		if !c.Failed() {
			xs = append(xs, metric(c))
		}
	}
	return geomean(xs)
}

// geomean returns the geometric mean of positive values (0 if none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// newTable returns a tabwriter over w.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
