// Package graphpulse is a faithful software reproduction of GraphPulse
// (Rahman, Abu-Ghazaleh, Gupta — MICRO 2020): an event-driven hardware
// accelerator for asynchronous graph processing, modeled at cycle level,
// together with the delta-accumulative algorithm framework it executes and
// the two baselines the paper evaluates against (a Ligra-style software
// framework and a Graphicionado-style BSP accelerator model).
//
// This package is the public facade: it re-exports the stable surface of
// the internal packages so applications depend on one import path.
//
// # Quick start
//
//	g, _ := graphpulse.GenerateRMAT(graphpulse.RMATParams{
//	    A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 14, EdgeFactor: 12,
//	    Weighted: true, Seed: 42,
//	})
//	res, _ := graphpulse.Run(graphpulse.OptimizedConfig(), g,
//	    graphpulse.NewPageRankDelta())
//	fmt.Printf("converged in %d cycles (%.3f ms at 1 GHz)\n",
//	    res.Cycles, res.Seconds*1e3)
//
// # Structure
//
//   - Graphs: CSR storage ([Graph]), loaders, and deterministic workload
//     generators calibrated to the paper's Table IV datasets.
//   - Algorithms: the Table II delta-accumulative applications (PageRank-
//     Delta, Adsorption, SSSP, BFS, Connected Components) plus extensions,
//     all defined by propagate/reduce/init/terminate functions.
//   - Accelerator: the GraphPulse model — coalescing event queues, round
//     scheduler, event processors, decoupled generation streams, prefetcher,
//     DRAM timing model, and large-graph slicing.
//   - Baselines: [RunLigra] (host-parallel software) and
//     [RunGraphicionado] (simulated BSP accelerator).
//   - Energy: the Table V power/area model.
package graphpulse

import (
	"context"
	"io"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/core"
	"graphpulse/internal/energy"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/serve"
	"graphpulse/internal/sim"
	"graphpulse/internal/sim/telemetry"
)

// Graph is an immutable directed graph in Compressed Sparse Row form.
type Graph = graph.CSR

// Edge is a single directed, optionally weighted edge.
type Edge = graph.Edge

// VertexID identifies a vertex (graphs are labeled 0..NumVertices-1).
type VertexID = graph.VertexID

// GraphStats summarizes a graph's shape (Table IV reporting).
type GraphStats = graph.Stats

// NewGraph builds a CSR graph from an edge list.
func NewGraph(numVertices int, edges []Edge, weighted bool) (*Graph, error) {
	return graph.FromEdges(numVertices, edges, weighted)
}

// ReadEdgeList parses a SNAP-style text edge list.
func ReadEdgeList(r io.Reader, vertexHint int) (*Graph, error) {
	return graph.ReadEdgeList(r, vertexHint)
}

// WriteEdgeList emits a graph as a text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ComputeGraphStats scans a graph and summarizes its shape.
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// RMATParams configures the R-MAT synthetic graph generator.
type RMATParams = gen.RMATParams

// GenerateRMAT builds a deterministic R-MAT graph.
func GenerateRMAT(p RMATParams) (*Graph, error) { return gen.RMAT(p) }

// GenerateErdosRenyi builds a uniform random graph with n vertices and m
// edges.
func GenerateErdosRenyi(n, m int, weighted bool, seed int64) (*Graph, error) {
	return gen.ErdosRenyi(n, m, weighted, seed)
}

// GenerateGrid builds a 4-neighbor grid (road-network-like topology).
func GenerateGrid(width, height int, weighted bool, seed int64) (*Graph, error) {
	return gen.Grid2D(width, height, weighted, seed)
}

// DatasetSpec describes one of the paper's Table IV workloads and its
// synthetic stand-in.
type DatasetSpec = gen.DatasetSpec

// Tier selects the size class of a dataset stand-in (Tiny/Mini/Full).
type Tier = gen.Tier

// Dataset size tiers. Full matches the paper's dataset scales; Mini is the
// benchmarking default; Tiny is for tests.
const (
	Tiny = gen.Tiny
	Mini = gen.Mini
	Full = gen.Full
)

// Datasets lists the five Table IV workloads (WG, FB, WK, LJ, TW).
func Datasets() []DatasetSpec { return gen.Datasets }

// DatasetByAbbrev returns the Table IV workload with the given abbreviation.
func DatasetByAbbrev(abbrev string) (DatasetSpec, error) { return gen.DatasetByAbbrev(abbrev) }

// Algorithm is a delta-accumulative graph computation (paper Section II-B):
// a commutative/associative reduce with identity, plus a per-edge propagate.
type Algorithm = algorithms.Algorithm

// EdgeContext carries per-edge information to propagate functions.
type EdgeContext = algorithms.EdgeContext

// Algorithm constructors (the Table II mappings plus extensions).
var (
	// NewPageRankDelta is incremental PageRank (propagate α·δ/N, reduce +).
	NewPageRankDelta = algorithms.NewPageRankDelta
	// NewAdsorption is weighted label propagation (propagate α·E·δ, reduce +).
	NewAdsorption = algorithms.NewAdsorption
	// NewSSSP is single-source shortest paths (propagate E+δ, reduce min).
	NewSSSP = algorithms.NewSSSP
	// NewBFS is hop-level breadth-first search (propagate δ+1, reduce min).
	NewBFS = algorithms.NewBFS
	// NewReach is reachability, the literal Table II BFS row (propagate 0).
	NewReach = algorithms.NewReach
	// NewConnectedComponents is max-label propagation (propagate δ, reduce max).
	NewConnectedComponents = algorithms.NewConnectedComponents
	// NewSSWP is single-source widest path (propagate min(δ,E), reduce max).
	NewSSWP = algorithms.NewSSWP
	// NewReliablePath is most-reliable path (propagate δ·E, reduce max).
	NewReliablePath = algorithms.NewReliablePath
)

// Solve runs an algorithm to convergence with the sequential reference
// worklist engine — the golden model the hardware simulations are verified
// against. Use it when you want answers, not architecture measurements.
func Solve(g *Graph, alg Algorithm) *SolveResult { return algorithms.Solve(g, alg) }

// SolveCtx runs like Solve with wall-clock cancellation: when ctx is
// canceled it stops and returns an error wrapping ErrCanceled, the same
// sentinel the simulated engines use. A nil ctx never fails.
func SolveCtx(ctx context.Context, g *Graph, alg Algorithm) (*SolveResult, error) {
	return algorithms.SolveCtx(ctx, g, alg)
}

// SolveResult is the reference solver's output.
type SolveResult = algorithms.SolveResult

// IncrementalAfterInsert prepares incremental recomputation after edge
// insertions: given a converged state on `old`, it returns the post-update
// graph and a warm-started algorithm seeded with exactly the correction
// events the new edges introduce. Run the pair on any engine; the fixed
// point matches a cold start on the new graph at a fraction of the work.
// Supported by the path/label algorithms and PageRank-Delta.
func IncrementalAfterInsert(alg Algorithm, old *Graph, added []Edge, state []float64) (*Graph, Algorithm, error) {
	return algorithms.IncrementalAfterInsert(alg, old, added, state)
}

// Config describes a GraphPulse accelerator build.
type Config = core.Config

// Result is an accelerator run's converged values plus every measurement
// the paper's figures are built from.
type Result = core.Result

// RoundStats records one scheduler round (Figures 4 and 8).
type RoundStats = core.RoundStats

// OptimizedConfig is the paper's full GraphPulse design (Table III +
// Section V optimizations) — the headline configuration.
func OptimizedConfig() Config { return core.OptimizedConfig() }

// BaselineConfig is the unoptimized GraphPulse of Section IV.
func BaselineConfig() Config { return core.BaselineConfig() }

// Run simulates the GraphPulse accelerator executing alg over g.
func Run(cfg Config, g *Graph, alg Algorithm) (*Result, error) {
	return RunCtx(nil, cfg, g, alg)
}

// RunCtx runs like Run with wall-clock cancellation (nil ctx = no
// cancellation).
func RunCtx(ctx context.Context, cfg Config, g *Graph, alg Algorithm) (*Result, error) {
	a, err := core.New(cfg, g, alg)
	if err != nil {
		return nil, err
	}
	return a.RunCtx(ctx)
}

// ConservationError reports an event-conservation violation detected by the
// accelerator's watchdog, with the full audit (counters, resident
// breakdown). It wraps ErrConservation.
type ConservationError = core.ConservationError

// Sentinel errors for simulated runs; test with errors.Is.
var (
	// ErrDeadline: the simulation exceeded Config.MaxCycles.
	ErrDeadline = sim.ErrDeadline
	// ErrCanceled: the run context expired (RunCtx, RunGraphicionadoCtx).
	ErrCanceled = sim.ErrCanceled
	// ErrConservation: events were lost or double-counted (the watchdog
	// tripped); errors.As to *ConservationError for the audit.
	ErrConservation = core.ErrConservation
)

// TelemetryConfig enables time-resolved sampling of a simulated engine
// (Config.Telemetry / GraphicionadoConfig.Telemetry): queue occupancy,
// event rates, DRAM traffic and stalls, every N cycles into bounded series.
// The zero value disables it at zero cost. See METRICS.md for the series.
type TelemetryConfig = telemetry.Config

// Telemetry is a run's sampled time series (Result.Telemetry; nil unless
// enabled). Export with WriteCSV or WriteChromeTrace — the latter loads in
// chrome://tracing and Perfetto.
type Telemetry = telemetry.Recorder

// TelemetrySeries is one exported probe timeline.
type TelemetrySeries = telemetry.Series

// DefaultTelemetryConfig is the sampling setup the -telemetry CLI flags use
// (512-cycle interval, ≤4096 points per series with decimation).
func DefaultTelemetryConfig() TelemetryConfig { return telemetry.Default() }

// LigraConfig tunes the Ligra-style software baseline.
type LigraConfig = ligra.Config

// LigraResult is the software baseline's output (wall-clock timing is the
// caller's responsibility; the engine runs natively).
type LigraResult = ligra.Result

// DefaultLigraConfig mirrors Ligra's published defaults.
func DefaultLigraConfig() LigraConfig { return ligra.DefaultConfig() }

// RunLigra executes alg under the direction-optimizing BSP software
// framework on the host.
func RunLigra(cfg LigraConfig, g *Graph, alg Algorithm) *LigraResult {
	return ligra.New(cfg, g).Run(alg)
}

// GraphicionadoConfig tunes the Graphicionado baseline model.
type GraphicionadoConfig = graphicionado.Config

// GraphicionadoResult is the Graphicionado model's output.
type GraphicionadoResult = graphicionado.Result

// DefaultGraphicionadoConfig mirrors the paper's baseline setup.
func DefaultGraphicionadoConfig() GraphicionadoConfig { return graphicionado.DefaultConfig() }

// RunGraphicionado simulates the Graphicionado-style BSP accelerator.
func RunGraphicionado(cfg GraphicionadoConfig, g *Graph, alg Algorithm) (*GraphicionadoResult, error) {
	return graphicionado.Run(cfg, g, alg)
}

// RunGraphicionadoCtx runs like RunGraphicionado with wall-clock
// cancellation (nil ctx = no cancellation).
func RunGraphicionadoCtx(ctx context.Context, cfg GraphicionadoConfig, g *Graph, alg Algorithm) (*GraphicionadoResult, error) {
	return graphicionado.RunCtx(ctx, cfg, g, alg)
}

// ServeConfig configures the graph analytics service: resident graphs,
// worker pool and admission queue sizing, deadlines, result cache, and
// warm-start history (OPERATIONS.md "Serving one process").
type ServeConfig = serve.Config

// ServeGraphSpec names one resident graph and its source: a Table IV
// stand-in ("WG:tiny"), a graph file path, or a pre-built *Graph.
type ServeGraphSpec = serve.GraphSpec

// Server is the long-lived serving runtime. Expose it with Start (own
// listener) or Handler (mount anywhere); stop with Shutdown, which drains
// in-flight requests.
type Server = serve.Server

// NewServer builds a Server: loads the configured graphs and starts the
// compute worker pool.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Serving wire types (the /v1/query and /v1/mutate JSON bodies).
type (
	QueryRequest   = serve.QueryRequest
	QueryResponse  = serve.QueryResponse
	MutateRequest  = serve.MutateRequest
	MutateResponse = serve.MutateResponse
	ServeGraphInfo = serve.GraphInfo
	ServeEdge      = serve.EdgeJSON
	VertexValue    = serve.VertexValue
)

// EnergyComponent is one Table V power/area row.
type EnergyComponent = energy.Component

// EnergyTableV returns the paper's published component rows.
func EnergyTableV() []EnergyComponent { return energy.TableV() }

// AcceleratorPowerWatts returns total accelerator power at an activity
// factor (1 = paper's measured activity).
func AcceleratorPowerWatts(activity float64) float64 {
	return energy.AcceleratorPowerWatts(energy.TableV(), activity)
}

// EnergyEfficiencyRatio returns how many times less energy the accelerator
// uses than the 12-core CPU baseline for runs of the given durations.
func EnergyEfficiencyRatio(accelSeconds, cpuSeconds float64) (float64, error) {
	return energy.EfficiencyRatio(nil, accelSeconds, cpuSeconds, 1)
}
