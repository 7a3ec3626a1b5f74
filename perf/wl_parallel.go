package main

import (
	"context"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/partition"
	"graphpulse/internal/psolve"
)

// parallelSolve: library level. On a WG-shape mini graph the solve set
// {pr, sssp, cc} runs interleaved on the serial solver, psolve with one
// worker and psolve with nproc workers (other fields default), which
// isolates sharding, relabel, exchange and termination from the serial
// inner loop they wrap.
type parallelSolve struct {
	h        *harness
	g        *graph.CSR
	genTime  time.Duration
	set      []query
	refs     []*algorithms.SolveResult
	refEdges int64
}

var parallelAlgs = []string{"pr", "sssp", "cc"}

func setupParallelSolve(h *harness) (env, error) {
	g, genTime, err := h.buildGraph("WG", gen.Mini)
	if err != nil {
		return nil, err
	}
	hub, _, err := rootPool(g)
	if err != nil {
		return nil, err
	}
	e := &parallelSolve{h: h, g: g, genTime: genTime}
	for _, a := range parallelAlgs {
		q := query{alg: a, root: hub}
		ref, err := reference(g, q)
		if err != nil {
			return nil, err
		}
		e.set = append(e.set, q)
		e.refs = append(e.refs, ref)
		e.refEdges += ref.Emitted
	}
	return e, nil
}

// solveSet runs the set under cfg (nil = the serial solver), checks every
// result, and returns the set's total time and the last psolve result per
// algorithm.
func (e *parallelSolve) solveSet(rec *recorder, name string, op int, cfg *psolve.Config, c *checks) (time.Duration, []*psolve.Result, error) {
	var total time.Duration
	var results []*psolve.Result
	for i, q := range e.set {
		var values []float64
		var err error
		_, d := rec.time(name+"."+q.alg, op*len(e.set)+i, 0, func() {
			if cfg == nil {
				var res *algorithms.SolveResult
				if res, err = algorithms.SolveCtx(context.Background(), e.g, q.algorithm()); err == nil {
					values = res.Values
				}
				return
			}
			var res *psolve.Result
			if res, err = psolve.SolveCtx(context.Background(), e.g, q.algorithm(), *cfg); err == nil {
				values = res.Values
				results = append(results, res)
			}
		})
		if err != nil {
			return 0, nil, err
		}
		total += d
		c.add(1, 0)
		if err := checkValues(name+" "+q.alg, e.g, q, values, e.refs[i].Values); err != nil {
			c.fail("%v", err)
		}
	}
	return total, results, nil
}

func (e *parallelSolve) measure(seconds float64, c *checks) (measured, error) {
	window := time.Duration(seconds * float64(time.Second))
	var w1, wn []time.Duration
	// The serial solver, base of the psolve ratios, runs in the traced pass;
	// leaving it out here buys more passes of the two regimes measured.
	before := readUsage()
	for start := time.Now(); time.Since(start) < window; {
		one, _, err := e.solveSet(nil, "w1", 0, &psolve.Config{Workers: 1}, c)
		if err != nil {
			return measured{}, err
		}
		all, _, err := e.solveSet(nil, "wn", 0, &psolve.Config{Workers: e.h.nproc}, c)
		if err != nil {
			return measured{}, err
		}
		w1, wn = append(w1, one), append(wn, all)
	}
	m := measured{usage: before.since(), ops: 2 * len(e.set) * len(wn), samples: len(wn) * len(e.set)}
	m.p50, m.p50Sprd = passStats(w1, len(e.set))
	m.p50b, m.p50bSprd = passStats(wn, len(e.set))
	return m, nil
}

func (e *parallelSolve) trace(rec *recorder, c *checks) (layers, error) {
	l := layers{}
	probeGraph(l, e.g, e.genTime)
	probeAlgorithms(l, e.g, e.set[0].root, parallelAlgs)
	l.set("partition.split_ms", ms(medianTime(3, func() {
		if _, err := partition.Split(e.g, e.h.nproc, 1); err != nil {
			panic(err)
		}
	})))

	passes := e.h.count(3)
	var serial, w1, wn, flat []time.Duration
	var last []*psolve.Result
	for p := 0; p < passes; p++ {
		s, _, err := e.solveSet(rec, "algorithms.solve", p, nil, c)
		if err != nil {
			return nil, err
		}
		one, _, err := e.solveSet(rec, "psolve.w1", p, &psolve.Config{Workers: 1}, c)
		if err != nil {
			return nil, err
		}
		all, results, err := e.solveSet(rec, "psolve.wn", p, &psolve.Config{Workers: e.h.nproc}, c)
		if err != nil {
			return nil, err
		}
		norelabel, _, err := e.solveSet(rec, "psolve.wn.norelabel", p, &psolve.Config{Workers: e.h.nproc, NoRelabel: true}, c)
		if err != nil {
			return nil, err
		}
		serial, w1, wn, flat, last = append(serial, s), append(w1, one), append(wn, all), append(flat, norelabel), results
	}
	s, one, all := medianDuration(serial).Seconds(), medianDuration(w1).Seconds(), medianDuration(wn).Seconds()
	l.set("algorithms.solve_s.serial", s)
	l.set("psolve.w1_vs_serial_x", s/one)
	l.set("psolve.wn_vs_serial_x", s/all)
	l.set("psolve.w1_medges_per_s", float64(e.refEdges)/1e6/one)
	l.set("psolve.wn_medges_per_s", float64(e.refEdges)/1e6/all)
	l.set("psolve.norelabel_vs_relabel_x", medianDuration(flat).Seconds()/all)
	var deltas, batches, rounds, cut int64
	imbalance := 0.0
	for _, r := range last {
		deltas += r.CrossShardDeltas
		batches += r.CrossShardBatches
		rounds += r.TerminationRounds
		cut = int64(r.CutEdges)
		var most, sum int64
		for _, a := range r.WorkerActivations {
			most, sum = max(most, a), sum+a
		}
		if sum > 0 {
			imbalance += float64(most) * float64(len(r.WorkerActivations)) / float64(sum) / float64(len(last))
		}
	}
	l.set("psolve.cross_shard_deltas", float64(deltas))
	l.set("psolve.cross_shard_batches", float64(batches))
	l.set("psolve.termination_rounds", float64(rounds))
	l.set("psolve.cut_edges", float64(cut))
	l.set("psolve.activation_imbalance", imbalance)
	l.set("client.trace_overhead_pct", traceOverhead(rec, func(r *recorder, rep int) {
		if _, _, err := e.solveSet(r, "psolve.w1", passes+rep, &psolve.Config{Workers: 1}, c); err != nil {
			panic(err)
		}
	}))
	return l, nil
}

func (e *parallelSolve) close() error { return nil }
