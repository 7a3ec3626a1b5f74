package main

import "fmt"

// This file is the benchmark's catalogue and its only hand-written copy: the
// workloads, the end-to-end metrics with their bounds, and every per-layer
// metric with the end-to-end metric it is expected to move. BENCHMARK.json
// at the repository root and the per-layer table in README.md are rendered
// from it by the test (go test -run TestCatalogue -update), which fails when
// either differs.

type workloadDef struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	setup func(h *harness) (env, error)
}

var workloadDefs = []workloadDef{
	{"cold-query", "every /v1/query is a cache miss on a 65k-vertex in-RAM graph: the serial solver and CSR row access do the work; router, WAL and out-of-core store do none", setupColdQuery},
	{"cached-fleet", fmt.Sprintf("every query is a cache hit behind a router and 3 replicas, open loop at a quarter of R = %d requests/s: router hop, net/http, cache lookup, top-k and JSON encode do the work, the solver none", frozenRate), setupCachedFleet},
	{"mutate-churn", "insert/delete batches then warm re-queries through the fleet with fsynced WALs: write fan-out, CSR rebuild, WAL append and warm-start planning do the work", setupMutateChurn},
	{"ooc-solve", "library solves on a graphpack store at unlimited and quarter budget beside the in-RAM CSR: slice decode and LRU residency dominate and are absent from every other workload", setupOOCSolve},
	{"parallel-solve", "psolve at 1 and nproc workers beside the serial solver on one graph: isolates sharding, relabel, cross-shard exchange and termination from the serial inner loop", setupParallelSolve},
	{"sim-sweep", "cycle-level GraphPulse, Graphicionado and Ligra models on one graph: simulated statistics must repeat exactly and simulator host speed gets its own number", setupSimSweep},
}

type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// The end-to-end metrics are the same five on every workload; what "op" and
// "op2" mean per workload is the table in README.md ("Operations").
var endToEndDefs = []endToEndDef{
	{"ops_per_cpu_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op2_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

type layerDef struct {
	Name   string
	Unit   string
	Better string
	// Exact marks a count that repeats bit for bit at a fixed seed.
	Exact bool
	// Moves and On name the end-to-end metrics (or "failed", the failure
	// count) and the workloads this metric is expected to move; both empty
	// marks a guard or context, which Note explains.
	Moves, On, Note string
}

const (
	lo = "lower"
	hi = "higher"
)

// layerDefs lists every per-layer metric; the part of the name before the
// first dot is the module it measures. A metric reads 0 on a workload that
// does not execute its layer.
var layerDefs = []layerDef{
	{"gen.rmat_medges_per_s", "medges/s", hi, false, "setup_s", "all", ""},

	{"graph.from_edges_ns_per_edge", "ns/edge", lo, false, "op2_p50_ms", "mutate-churn", "setup_s on all"},
	{"graph.row_scan_ns_per_edge", "ns/edge", lo, false, "ops_per_cpu_s", "cold-query", ""},
	{"graph.bytes_per_edge", "B/edge", lo, true, "setup_s", "all", ""},

	{"partition.split_ms", "ms", lo, false, "setup_s", "ooc-solve", "ops_per_cpu_s on parallel-solve"},

	{"ooc.write_mb_per_s", "MB/s", hi, false, "setup_s", "ooc-solve", ""},
	{"ooc.open_ms", "ms", lo, false, "setup_s", "ooc-solve", ""},
	{"ooc.decode_mb_per_s.l0", "MB/s", hi, false, "ops_per_cpu_s", "ooc-solve", ""},
	{"ooc.decode_mb_per_s.l1", "MB/s", hi, false, "ops_per_cpu_s", "ooc-solve", ""},
	{"ooc.decode_mb_per_s.l2", "MB/s", hi, false, "ops_per_cpu_s", "ooc-solve", ""},
	{"ooc.row_scan_ns_per_edge.resident", "ns/edge", lo, false, "op2_p50_ms", "ooc-solve", ""},
	{"ooc.decodes_per_solve", "count", lo, true, "ops_per_cpu_s", "ooc-solve", ""},
	{"ooc.evictions_per_solve", "count", lo, true, "ops_per_cpu_s", "ooc-solve", ""},
	{"ooc.hit_ratio", "ratio", hi, true, "ops_per_cpu_s", "ooc-solve", ""},
	{"ooc.decoded_bytes_per_edge", "B/edge", lo, true, "ops_per_cpu_s", "ooc-solve", ""},
	{"ooc.resident_slowdown_x", "x", lo, false, "op2_p50_ms", "ooc-solve", ""},
	{"ooc.quarter_slowdown_x", "x", lo, false, "op_p50_ms", "ooc-solve", ""},
	{"ooc.quarter_medges_per_s", "medges/s", hi, false, "ops_per_cpu_s", "ooc-solve", ""},
	{"ooc.resident_medges_per_s", "medges/s", hi, false, "op2_p50_ms", "ooc-solve", ""},
	{"ooc.container_bytes_per_edge", "B/edge", lo, true, "setup_s", "ooc-solve", ""},
	{"ooc.resident_bytes_peak", "B", lo, true, "", "", "guard: expected to stay flat"},

	{"algorithms.solve_ns_per_edge.pr", "ns/edge", lo, false, "ops_per_cpu_s, op2_p50_ms", "cold-query", ""},
	{"algorithms.solve_ns_per_edge.sssp", "ns/edge", lo, false, "ops_per_cpu_s, op_p50_ms", "cold-query", ""},
	{"algorithms.solve_ns_per_edge.bfs", "ns/edge", lo, false, "ops_per_cpu_s", "cold-query", ""},
	{"algorithms.solve_ns_per_edge.cc", "ns/edge", lo, false, "", "", "base of both ooc-solve ratios"},
	{"algorithms.allocs_per_solve", "count", lo, false, "alloc_mb_per_op", "cold-query", ""},
	{"algorithms.alloc_kb_per_solve", "KB", lo, false, "alloc_mb_per_op", "cold-query", ""},
	{"algorithms.activations_per_solve.pr", "count", lo, true, "ops_per_cpu_s", "cold-query", ""},
	{"algorithms.activations_per_solve.sssp", "count", lo, true, "ops_per_cpu_s", "cold-query", ""},
	{"algorithms.activations_per_solve.bfs", "count", lo, true, "ops_per_cpu_s", "cold-query", ""},
	{"algorithms.activations_per_solve.cc", "count", lo, true, "ops_per_cpu_s", "parallel-solve", ""},
	{"algorithms.edges_per_solve.pr", "count", lo, true, "ops_per_cpu_s", "cold-query", ""},
	{"algorithms.edges_per_solve.sssp", "count", lo, true, "ops_per_cpu_s", "cold-query", ""},
	{"algorithms.edges_per_solve.bfs", "count", lo, true, "ops_per_cpu_s", "cold-query", ""},
	{"algorithms.edges_per_solve.cc", "count", lo, true, "ops_per_cpu_s", "parallel-solve", ""},
	{"algorithms.warm_seed_ms", "ms", lo, false, "op_p50_ms", "mutate-churn", ""},
	{"algorithms.solve_s.inram", "s", lo, false, "", "", "base of ooc.resident_slowdown_x, ooc.quarter_slowdown_x"},
	{"algorithms.solve_s.serial", "s", lo, false, "", "", "base of psolve.w1_vs_serial_x, psolve.wn_vs_serial_x"},

	{"psolve.w1_vs_serial_x", "x", hi, false, "ops_per_cpu_s, op_p50_ms", "parallel-solve", ""},
	{"psolve.wn_vs_serial_x", "x", hi, false, "op2_p50_ms", "parallel-solve", ""},
	{"psolve.w1_medges_per_s", "medges/s", hi, false, "ops_per_cpu_s", "parallel-solve", ""},
	{"psolve.wn_medges_per_s", "medges/s", hi, false, "op2_p50_ms", "parallel-solve", ""},
	{"psolve.norelabel_vs_relabel_x", "x", lo, false, "op2_p50_ms", "parallel-solve", ""},
	{"psolve.cross_shard_deltas", "count", lo, false, "op2_p50_ms", "parallel-solve", ""},
	{"psolve.cross_shard_batches", "count", lo, false, "op2_p50_ms", "parallel-solve", ""},
	{"psolve.termination_rounds", "count", lo, false, "op2_p50_ms", "parallel-solve", ""},
	{"psolve.cut_edges", "count", lo, true, "op2_p50_ms", "parallel-solve", ""},
	{"psolve.activation_imbalance", "x", lo, false, "op2_p50_ms", "parallel-solve", ""},

	{"engines.dispatch_overhead_us", "us", lo, false, "", "", "guard: expected to stay flat"},

	{"stream.plan_restart_ms.insert", "ms", lo, false, "op_p50_ms", "mutate-churn", ""},
	{"stream.plan_restart_ms.delete", "ms", lo, false, "op_p50_ms", "mutate-churn", ""},
	{"stream.log_append_ns_per_edge", "ns/edge", lo, false, "op2_p50_ms", "mutate-churn", ""},
	{"stream.mode_share.warm", "ratio", hi, true, "ops_per_cpu_s", "mutate-churn", ""},
	{"stream.mode_share.cone", "ratio", hi, true, "ops_per_cpu_s", "mutate-churn", ""},
	{"stream.mode_share.cold", "ratio", lo, true, "ops_per_cpu_s", "mutate-churn", ""},
	{"stream.warm_activation_ratio", "ratio", lo, false, "ops_per_cpu_s", "mutate-churn", ""},

	{"serve.handler_cached_us", "us", lo, false, "ops_per_cpu_s, op_p50_ms, op2_p50_ms", "cached-fleet", ""},
	{"serve.handler_cold_overhead_us", "us", lo, false, "op_p50_ms", "cold-query", ""},
	{"serve.encode_us.top10", "us", lo, false, "ops_per_cpu_s", "cached-fleet", ""},
	{"serve.encode_us.values1000", "us", lo, false, "ops_per_cpu_s", "cached-fleet", ""},
	{"serve.http_hop_us", "us", lo, false, "ops_per_cpu_s", "cached-fleet", ""},
	{"serve.mutate_apply_ms", "ms", lo, false, "op2_p50_ms", "mutate-churn", ""},
	{"serve.cache_hit_share", "ratio", hi, true, "failed", "cold-query, cached-fleet, mutate-churn", ""},
	{"serve.coalesced_share", "ratio", lo, false, "failed", "cold-query, cached-fleet, mutate-churn", ""},
	{"serve.rejected_share", "ratio", lo, false, "failed", "cold-query, cached-fleet, mutate-churn", ""},
	{"serve.deadline_share", "ratio", lo, false, "failed", "cold-query, cached-fleet, mutate-churn", ""},
	{"serve.snapshot_export_ms", "ms", lo, false, "", "", "guard: expected to stay flat"},

	{"dserve.router_hop_us", "us", lo, false, "ops_per_cpu_s, op_p50_ms", "cached-fleet", "op2_p50_ms bypasses the router and must stay flat"},
	{"dserve.fanout_mutate_ms", "ms", lo, false, "op2_p50_ms", "mutate-churn", ""},
	{"dserve.wal_append_ms", "ms", lo, false, "op2_p50_ms", "mutate-churn", ""},
	{"dserve.wal_bytes_per_edge", "B/edge", lo, false, "op2_p50_ms", "mutate-churn", ""},
	{"dserve.digest_ms", "ms", lo, false, "", "", "guard: expected to stay flat"},
	{"dserve.router_retries", "count", lo, false, "failed", "cached-fleet, mutate-churn", ""},
	{"dserve.router_mutate_partial", "count", lo, false, "failed", "mutate-churn", ""},
	{"dserve.replica_divergence", "count", lo, false, "failed", "mutate-churn", ""},

	{"core.cycles.pr", "cycles", lo, true, "", "", "simulated time; guard for sim-sweep"},
	{"core.cycles.sssp", "cycles", lo, true, "", "", "simulated time; guard for sim-sweep"},
	{"core.rounds", "count", lo, true, "", "", "core.cycles"},
	{"core.events_processed", "count", lo, true, "", "", "core.cycles"},
	{"core.coalesce_pct", "%", hi, true, "", "", "core.cycles"},
	{"core.offchip_bytes", "B", lo, true, "", "", "core.cycles"},
	{"core.offchip_utilization_pct", "%", hi, true, "", "", "core.cycles"},
	{"mem.row_hit_pct", "%", hi, true, "", "", "core.cycles"},
	{"core.host_ns_per_cycle", "ns", lo, false, "op_p50_ms", "sim-sweep", ""},
	{"core.host_ns_per_event", "ns", lo, false, "ops_per_cpu_s", "sim-sweep", ""},
	{"core.host_mevents_per_s", "mevents/s", hi, false, "ops_per_cpu_s", "sim-sweep", ""},
	{"telemetry.enabled_overhead_pct", "%", lo, false, "ops_per_cpu_s", "sim-sweep", ""},

	{"graphicionado.cycles", "cycles", lo, true, "", "", "guard: expected to stay flat"},
	{"graphicionado.host_s", "s", lo, false, "op2_p50_ms", "sim-sweep", ""},
	{"core.speedup_vs_graphicionado_x", "x", hi, true, "", "", "guard: expected to stay flat"},
	{"core.paper_speedup_error_pct", "%", lo, true, "", "", "guard: expected to stay flat"},
	{"ligra.medges_per_s", "medges/s", hi, false, "", "", "guard: expected to stay flat"},
	{"energy.efficiency_x", "x", hi, true, "", "", "guard: expected to stay flat"},

	{"client.samples.query", "count", hi, true, "", "", "sample count behind client.query_*"},
	{"client.samples.mutate", "count", hi, true, "", "", "sample count behind client.mutate_*"},
	{"client.query_p90_ms", "ms", lo, false, "", "", "tails do not repeat within a tenth on a shared 2-core box"},
	{"client.query_p99_ms", "ms", lo, false, "", "", "tails do not repeat within a tenth on a shared 2-core box"},
	{"client.query_p50_ms.pr", "ms", lo, false, "op2_p50_ms", "cold-query", ""},
	{"client.query_p50_ms.sssp", "ms", lo, false, "op_p50_ms", "cold-query", ""},
	{"client.query_p50_ms.bfs", "ms", lo, false, "ops_per_cpu_s", "cold-query", ""},
	{"client.query_p50_ms.sswp", "ms", lo, false, "ops_per_cpu_s", "cold-query", ""},
	{"client.query_p50_ms.cc", "ms", lo, false, "op_p50_ms", "mutate-churn", ""},
	{"client.mutate_p90_ms", "ms", lo, false, "", "", "guard: expected to stay flat"},
	{"client.over_limit_share", "ratio", lo, false, "failed", "cold-query, cached-fleet, mutate-churn", ""},
	{"client.late_p99_ms", "ms", lo, false, "", "", "how late the open-loop generator ran"},
	{"client.p50_ms.r25", "ms", lo, false, "op_p50_ms", "cached-fleet", "the same phase, over a fixed request count"},
	{"client.p50_ms.r50", "ms", lo, false, "", "", "open loop at R/2: moves by tens of percent between identical runs on a shared box"},
	{"client.p50_ms.r75", "ms", lo, false, "", "", "open loop at 3R/4: as r50, more so"},
	{"client.capacity_rps", "1/s", hi, false, "ops_per_cpu_s", "cold-query, cached-fleet", "closed loop at saturation; R is frozen from it on cached-fleet"},
	{"client.max_rate_ok_rps", "1/s", hi, false, "ops_per_cpu_s", "cached-fleet", "highest of R/4, R/2, 3R/4, R, 5R/4 that met the limit with no growing backlog"},
	{"client.trace_overhead_pct", "%", lo, false, "", "", "guard: expected to stay flat"},

	{"runtime.heap_peak_mb", "MB", lo, false, "alloc_mb_per_op", "all", ""},
	{"runtime.gc_pause_total_ms", "ms", lo, false, "op_p50_ms", "all", ""},
	{"runtime.gomaxprocs", "count", hi, true, "", "", "context"},
	{"runtime.num_cpu", "count", hi, true, "", "", "context"},
}

func layerDefByName(name string) (layerDef, bool) {
	for _, d := range layerDefs {
		if d.Name == name {
			return d, true
		}
	}
	return layerDef{}, false
}

// frozenRate is R in requests per second: client.capacity_rps of
// cached-fleet (closed loop through the router at saturation) as the first
// accepted run, results/seed1.json, measured it, in round hundreds; the test
// fails when that file's value is more than a tenth away. The open-loop
// phases run at shares of R; freezing it keeps their offered load the same
// on every later commit.
const frozenRate = 2900

// paperSpeedupVsGraphicionado is the paper's Fig. 10 mean speed-up of
// GraphPulse over Graphicionado (EXPERIMENTS.md "Figure 10"); the paper
// gives no per-cell reference for the LJ stand-in.
const paperSpeedupVsGraphicionado = 6.2

// runSeconds is how long the acceptance driver lets one run measure.
const runSeconds = 12
