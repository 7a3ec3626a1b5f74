package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/graph/partition"
)

// oocSolve: library level, no HTTP. A WG-shape tiny graph packed with
// ooc.Write (default level, 16 slices) is solved with algorithms.SolveCtx in
// three interleaved regimes: the in-RAM CSR, the store with unlimited
// budget, and the store with a quarter of the fully-resident bytes — one
// regime fits the store's cache, one is four times larger than it.
type oocSolve struct {
	h         *harness
	g         *graph.CSR
	genTime   time.Duration
	path      string
	writeTime time.Duration
	openTime  time.Duration
	fullBytes int64
	resident  *ooc.Store
	quarter   *ooc.Store
	set       []query
	refs      []*algorithms.SolveResult
	refEdges  int64
}

var oocAlgs = []string{"pr", "sssp", "bfs", "cc"}

func setupOOCSolve(h *harness) (env, error) {
	g, genTime, err := h.buildGraph("WG", gen.Tiny)
	if err != nil {
		return nil, err
	}
	hub, _, err := rootPool(g)
	if err != nil {
		return nil, err
	}
	e := &oocSolve{h: h, g: g, genTime: genTime, path: filepath.Join(h.tmp, "graph.graphpack")}
	for _, a := range oocAlgs {
		q := query{alg: a, root: hub}
		ref, err := reference(g, q)
		if err != nil {
			return nil, err
		}
		e.set = append(e.set, q)
		e.refs = append(e.refs, ref)
		e.refEdges += ref.Emitted
	}
	start := time.Now()
	if err := writePack(e.path, g, ooc.WriteOptions{}); err != nil {
		return nil, err
	}
	e.writeTime = time.Since(start)
	start = time.Now()
	if e.resident, err = ooc.Open(e.path, 0); err != nil {
		return nil, err
	}
	e.openTime = time.Since(start)
	// Open decodes every slice once, so an unlimited store is fully
	// resident here; the quarter budget is a quarter of that.
	e.fullBytes = e.resident.Counters().ResidentBytes
	if e.quarter, err = ooc.Open(e.path, e.fullBytes/4); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

func writePack(path string, g *graph.CSR, opt ooc.WriteOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ooc.Write(f, g, opt); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solveSet solves the whole set on adj, checks every result against the
// reference, and returns the set's total time.
func (e *oocSolve) solveSet(rec *recorder, name string, op int, adj graph.Adjacency, c *checks) (time.Duration, error) {
	var total time.Duration
	for i, q := range e.set {
		var res *algorithms.SolveResult
		var err error
		_, d := rec.time(name+"."+q.alg, op*len(e.set)+i, 0, func() { res, err = algorithms.SolveCtx(context.Background(), adj, q.algorithm()) })
		if err != nil {
			return 0, err
		}
		total += d
		c.add(1, 0)
		if err := checkValues(name+" "+q.alg, e.g, q, res.Values, e.refs[i].Values); err != nil {
			c.fail("%v", err)
		}
	}
	return total, nil
}

func (e *oocSolve) measure(seconds float64, c *checks) (measured, error) {
	window := time.Duration(seconds * float64(time.Second))
	var resident, quarter []time.Duration
	before := readUsage()
	for start := time.Now(); time.Since(start) < window; {
		if _, err := e.solveSet(nil, "inram", 0, e.g, c); err != nil {
			return measured{}, err
		}
		r, err := e.solveSet(nil, "resident", 0, e.resident, c)
		if err != nil {
			return measured{}, err
		}
		q, err := e.solveSet(nil, "quarter", 0, e.quarter, c)
		if err != nil {
			return measured{}, err
		}
		resident, quarter = append(resident, r), append(quarter, q)
	}
	m := measured{usage: before.since(), ops: 3 * len(e.set) * len(quarter), samples: len(quarter) * len(e.set)}
	m.p50, m.p50Sprd = passStats(quarter, len(e.set))
	m.p50b, m.p50bSprd = passStats(resident, len(e.set))
	return m, nil
}

func (e *oocSolve) trace(rec *recorder, c *checks) (layers, error) {
	l := layers{}
	probeGraph(l, e.g, e.genTime)
	inram := probeAlgorithms(l, e.g, e.set[0].root, oocAlgs)
	var inramSet time.Duration
	for _, d := range inram {
		inramSet += d
	}
	l.set("algorithms.solve_s.inram", inramSet.Seconds())

	info, err := os.Stat(e.path)
	if err != nil {
		return nil, err
	}
	m := float64(e.g.NumEdges())
	l.set("ooc.write_mb_per_s", float64(info.Size())/(1<<20)/e.writeTime.Seconds())
	l.set("ooc.open_ms", ms(e.openTime))
	l.set("ooc.container_bytes_per_edge", float64(info.Size())/m)
	l.set("ooc.row_scan_ns_per_edge.resident", float64(medianTime(5, func() { rowScan(e.resident) }).Nanoseconds())/m)
	l.set("partition.split_ms", ms(medianTime(3, func() {
		if _, err := partition.Split(e.g, 16, 1); err != nil {
			panic(err)
		}
	})))
	if err := e.probeDecode(l); err != nil {
		return nil, err
	}

	// One traced pass: the in-RAM solve is the part of a store-backed solve
	// that is not the store, so a regime's store cost is its span minus it.
	passes := e.h.count(3)
	var residentSet, quarterSet []time.Duration
	var counters ooc.Counters
	peak := int64(0)
	for p := 0; p < passes; p++ {
		if _, err := e.solveSet(rec, "algorithms.solve.inram", p, e.g, c); err != nil {
			return nil, err
		}
		r, err := e.solveSet(rec, "ooc.solve.resident", p, e.resident, c)
		if err != nil {
			return nil, err
		}
		e.quarter.ResetCounters()
		q, err := e.solveSet(rec, "ooc.solve.quarter", p, e.quarter, c)
		if err != nil {
			return nil, err
		}
		counters = e.quarter.Counters()
		peak = max(peak, counters.ResidentBytes)
		residentSet, quarterSet = append(residentSet, r), append(quarterSet, q)
	}
	c.add(1, 0)
	if peak > e.fullBytes/4 {
		c.fail("quarter-budget store holds %d resident bytes, budget %d", peak, e.fullBytes/4)
	}
	solves := float64(len(e.set))
	rs, qs := medianDuration(residentSet), medianDuration(quarterSet)
	l.set("ooc.resident_slowdown_x", rs.Seconds()/inramSet.Seconds())
	l.set("ooc.quarter_slowdown_x", qs.Seconds()/inramSet.Seconds())
	l.set("ooc.resident_medges_per_s", float64(e.refEdges)/1e6/rs.Seconds())
	l.set("ooc.quarter_medges_per_s", float64(e.refEdges)/1e6/qs.Seconds())
	l.set("ooc.decodes_per_solve", float64(counters.Decodes)/solves)
	l.set("ooc.evictions_per_solve", float64(counters.Evictions)/solves)
	l.set("ooc.hit_ratio", float64(counters.Hits)/float64(counters.Hits+counters.Decodes))
	l.set("ooc.decoded_bytes_per_edge", float64(counters.DecodedBytes)/float64(e.refEdges))
	l.set("ooc.resident_bytes_peak", float64(peak))
	l.set("client.trace_overhead_pct", traceOverhead(rec, func(r *recorder, rep int) {
		if _, err := e.solveSet(r, "ooc.solve.resident", passes+rep, e.resident, c); err != nil {
			panic(err)
		}
	}))
	return l, nil
}

// probeDecode measures slice decode throughput per compression level: the
// graph is packed at each level and opened with a one-slice budget, then
// every slice is touched in order, so each touch is one decode.
func (e *oocSolve) probeDecode(l layers) error {
	for level, name := range []string{"ooc.decode_mb_per_s.l0", "ooc.decode_mb_per_s.l1", "ooc.decode_mb_per_s.l2"} {
		path := filepath.Join(e.h.tmp, fmt.Sprintf("level%d.graphpack", level))
		if err := writePack(path, e.g, ooc.WriteOptions{Level: level, RawLevel: level == ooc.LevelRaw}); err != nil {
			return err
		}
		st, err := ooc.Open(path, 1)
		if err != nil {
			return err
		}
		bounds := st.SliceBoundaries()
		st.ResetCounters()
		d := medianTime(5, func() {
			for _, lo := range bounds[:len(bounds)-1] {
				sink += st.OutDegree(lo)
			}
		})
		decoded := float64(st.Counters().DecodedBytes) / 5
		if err := st.Close(); err != nil {
			return err
		}
		l.set(name, decoded/(1<<20)/d.Seconds())
	}
	return nil
}

func (e *oocSolve) close() error {
	var first error
	for _, st := range []*ooc.Store{e.resident, e.quarter} {
		if st != nil {
			if err := st.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
