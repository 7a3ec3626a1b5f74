package main

import (
	"fmt"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/core"
	"graphpulse/internal/energy"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim/telemetry"
)

// simSweep: the cycle-level GraphPulse model (optimized configuration),
// the Graphicionado model and the Ligra-style engine on an LJ-shape tiny
// graph × {pr, sssp}. Simulated statistics start from empty caches and must
// repeat exactly at a fixed seed; host time is how fast the simulator runs.
type simSweep struct {
	h       *harness
	g       *graph.CSR
	genTime time.Duration
	set     []query
	refs    []*algorithms.SolveResult
	// first holds the exact statistics of the first run of each algorithm;
	// every later run must reproduce them.
	first map[string]simStats
}

type simStats struct {
	cycles, gionCycles             uint64
	rounds                         int
	events, coalesced, bytes       int64
	bytesUseful, rowHits, rowMiss  int64
	memReads, memWrites, emittedEv int64
}

var simAlgs = []string{"pr", "sssp"}

func setupSimSweep(h *harness) (env, error) {
	g, genTime, err := h.buildGraph("LJ", gen.Tiny)
	if err != nil {
		return nil, err
	}
	hub, _, err := rootPool(g)
	if err != nil {
		return nil, err
	}
	e := &simSweep{h: h, g: g, genTime: genTime, first: map[string]simStats{}}
	for _, a := range simAlgs {
		q := query{alg: a, root: hub}
		ref, err := reference(g, q)
		if err != nil {
			return nil, err
		}
		e.set = append(e.set, q)
		e.refs = append(e.refs, ref)
	}
	return e, nil
}

// accel runs the GraphPulse model once, checks its values against the
// reference and its exact statistics against the first run.
func (e *simSweep) accel(i int, cfg core.Config, c *checks) (*core.Result, error) {
	q := e.set[i]
	acc, err := core.New(cfg, e.g, q.algorithm())
	if err != nil {
		return nil, err
	}
	res, err := acc.Run()
	if err != nil {
		return nil, err
	}
	c.add(1, 0)
	if err := checkValues("core "+q.alg, e.g, q, res.Values, e.refs[i].Values); err != nil {
		c.fail("%v", err)
	}
	got := simStats{
		cycles: res.Cycles, rounds: res.Rounds, events: res.EventsProcessed, coalesced: res.EventsCoalesced,
		bytes: res.BytesMoved, bytesUseful: res.BytesUseful, rowHits: res.RowHits, rowMiss: res.RowMisses,
		memReads: res.MemReads, memWrites: res.MemWrites, emittedEv: res.EventsEmitted,
	}
	want, seen := e.first["core."+q.alg]
	if !seen {
		e.first["core."+q.alg] = got
	} else if got != want {
		c.fail("core %s: simulated statistics differ between two runs at one seed: %+v then %+v", q.alg, want, got)
	}
	return res, nil
}

func (e *simSweep) gion(i int, c *checks) (*graphicionado.Result, error) {
	q := e.set[i]
	res, err := graphicionado.Run(graphicionado.DefaultConfig(), e.g, q.algorithm())
	if err != nil {
		return nil, err
	}
	c.add(1, 0)
	if err := checkValues("graphicionado "+q.alg, e.g, q, res.Values, e.refs[i].Values); err != nil {
		c.fail("%v", err)
	}
	got := simStats{gionCycles: res.Cycles}
	if want, seen := e.first["gion."+q.alg]; !seen {
		e.first["gion."+q.alg] = got
	} else if got != want {
		c.fail("graphicionado %s: %d cycles, then %d at the same seed", q.alg, want.gionCycles, got.gionCycles)
	}
	return res, nil
}

func (e *simSweep) measure(seconds float64, c *checks) (measured, error) {
	window := time.Duration(seconds * float64(time.Second))
	var accel, gion []time.Duration
	before := readUsage()
	for start := time.Now(); time.Since(start) < window; {
		var a, g time.Duration
		for i := range e.set {
			t := time.Now()
			if _, err := e.accel(i, core.OptimizedConfig(), c); err != nil {
				return measured{}, err
			}
			a += time.Since(t)
			t = time.Now()
			if _, err := e.gion(i, c); err != nil {
				return measured{}, err
			}
			g += time.Since(t)
		}
		accel, gion = append(accel, a), append(gion, g)
	}
	m := measured{usage: before.since(), ops: 2 * len(e.set) * len(accel), samples: len(accel) * len(e.set)}
	m.p50, m.p50Sprd = passStats(accel, len(e.set))
	m.p50b, m.p50bSprd = passStats(gion, len(e.set))
	return m, nil
}

func (e *simSweep) trace(rec *recorder, c *checks) (layers, error) {
	l := layers{}
	probeGraph(l, e.g, e.genTime)

	passes := e.h.count(3)
	// Every simulated run is an operation of its own (the telemetry twin
	// shares its run's id).
	ops := 0
	newOp := func() int { ops++; return ops - 1 }
	var err error
	var host, hostTelemetry, gionHost, ligraHost time.Duration
	var cycles, gionCycles uint64
	var events, produced, coalesced, bytes, useful, rowHits, rowMisses, ligraEdges int64
	var rounds int
	var accelSeconds, ligraModel float64
	for i, q := range e.set {
		var res *core.Result
		var plain, sampled []time.Duration
		for p := 0; p < passes; p++ {
			op := newOp()
			root, d := rec.time("core.run."+q.alg, op, 0, func() { res, err = e.accel(i, core.OptimizedConfig(), c) })
			if err != nil {
				return nil, err
			}
			plain = append(plain, d)
			// The same run with the sampling recorder on must not change
			// one simulated statistic (accel checks it against the first).
			cfg := core.OptimizedConfig()
			cfg.Telemetry = telemetry.Default()
			_, d = rec.time("core.run.telemetry."+q.alg, op, root, func() { _, err = e.accel(i, cfg, c) })
			if err != nil {
				return nil, err
			}
			sampled = append(sampled, d)
		}
		host += medianDuration(plain)
		hostTelemetry += medianDuration(sampled)
		l.set("core.cycles."+q.alg, float64(res.Cycles))
		cycles += res.Cycles
		rounds += res.Rounds
		events += res.EventsProcessed
		produced += res.EventsEmitted
		coalesced += res.EventsCoalesced
		bytes += res.BytesMoved
		useful += res.BytesUseful
		rowHits += res.RowHits
		rowMisses += res.RowMisses
		accelSeconds += res.Seconds

		var gres *graphicionado.Result
		gionHost += medianTime(passes, func() {
			_, _ = rec.time("graphicionado.run."+q.alg, newOp(), 0, func() { gres, err = e.gion(i, c) })
		})
		if err != nil {
			return nil, err
		}
		gionCycles += gres.Cycles

		var lres *ligra.Result
		eng := ligra.New(ligra.DefaultConfig(), e.g)
		ligraHost += medianTime(passes, func() {
			_, _ = rec.time("ligra.run."+q.alg, newOp(), 0, func() { lres = eng.Run(q.algorithm()) })
		})
		c.add(1, 0)
		if err := checkValues("ligra "+q.alg, e.g, q, lres.Values, e.refs[i].Values); err != nil {
			c.fail("%v", err)
		}
		ligraEdges += lres.EdgesTraversed
		ligraModel += ligra.ModelSeconds(lres, ligra.PaperXeon())
	}
	l.set("core.rounds", float64(rounds))
	l.set("core.events_processed", float64(events))
	l.set("core.coalesce_pct", 100*float64(coalesced)/float64(max(produced, 1)))
	l.set("core.offchip_bytes", float64(bytes))
	l.set("core.offchip_utilization_pct", 100*float64(useful)/float64(max(bytes, 1)))
	l.set("mem.row_hit_pct", 100*float64(rowHits)/float64(max(rowHits+rowMisses, 1)))
	l.set("core.host_ns_per_cycle", float64(host.Nanoseconds())/float64(cycles))
	l.set("core.host_ns_per_event", float64(host.Nanoseconds())/float64(events))
	l.set("core.host_mevents_per_s", float64(events)/1e6/host.Seconds())
	l.set("telemetry.enabled_overhead_pct", 100*float64(hostTelemetry-host)/float64(host))
	l.set("graphicionado.cycles", float64(gionCycles))
	l.set("graphicionado.host_s", gionHost.Seconds())
	speedup := float64(gionCycles) / float64(cycles)
	l.set("core.speedup_vs_graphicionado_x", speedup)
	// The paper gives one reference for this comparison, the Fig. 10 mean;
	// there is no per-cell value for an LJ stand-in at this size.
	l.set("core.paper_speedup_error_pct", 100*(speedup-paperSpeedupVsGraphicionado)/paperSpeedupVsGraphicionado)
	l.set("ligra.medges_per_s", float64(ligraEdges)/1e6/ligraHost.Seconds())
	eff, err := energy.EfficiencyRatio(energy.TableV(), accelSeconds, ligraModel, 1)
	if err != nil {
		return nil, fmt.Errorf("energy: %w", err)
	}
	l.set("energy.efficiency_x", eff)
	l.set("client.trace_overhead_pct", traceOverhead(rec, func(r *recorder, _ int) {
		r.time("graphicionado.run.sssp", newOp(), 0, func() { _, err = e.gion(1, c) })
	}))
	return l, err
}

func (e *simSweep) close() error { return nil }
