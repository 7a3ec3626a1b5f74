package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/engines"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/serve"
)

// coldQuery: one serve.Server over loopback HTTP, WG-shape mini graph in
// RAM, closed loop. Every request is a cache miss: rooted queries take
// distinct roots and pr jitters alpha. The measured window keeps one request
// in flight: with nproc connections client and solver saturate both cores of
// the reference box and identical runs differ by 17–25 %; the traced pass
// measures that capacity as client.capacity_rps.
type coldQuery struct {
	h       *harness
	g       *graph.CSR
	genTime time.Duration
	hub     graph.VertexID
	pool    []graph.VertexID
	stride  int
	node    *node
	cl      *client
}

func setupColdQuery(h *harness) (env, error) {
	g, genTime, err := h.buildGraph("WG", gen.Mini)
	if err != nil {
		return nil, err
	}
	e := &coldQuery{h: h, g: g, genTime: genTime}
	if e.hub, e.pool, err = rootPool(g); err != nil {
		return nil, err
	}
	e.stride = coprimeStride(len(e.pool))
	if e.node, err = bootNode(g, false, ""); err != nil {
		return nil, err
	}
	e.cl = newClient(1)
	// Lazy set-up (connections, first allocations) happens before timing.
	warm := e.cl.run(load{gen: func(i int) op { return e.op(warmupBase + i) }, count: 4})
	if warm.failed > 0 {
		return nil, errors.Join(fmt.Errorf("%d of %d warm-up queries failed", warm.failed, len(warm.samples)), e.close())
	}
	return e, nil
}

// Index ranges of the seeded request list: the measured window, the
// warm-up and the traced pass never share a request, so none is a hit.
const (
	warmupBase = 1 << 20
	traceBase  = 2 << 20
)

func coprimeStride(n int) int {
	for _, p := range []int{7919, 7907, 7901, 7883} {
		if n%p != 0 {
			return p
		}
	}
	return 1
}

// query returns request i of the seeded list: bfs 20 %, sssp 40 %, sswp
// 20 %, pr 20 %, in a fixed rotation of five so that every slice of the
// window holds the same mix (a drawn mix moves a slice's rate by ±13 % on
// its own). The 40 % sssp share pins the mixed-latency median inside one
// mode. Roots start at a seeded offset and walk the pool with a stride
// coprime to its size, so they stay distinct; pr alpha is unique per index
// in the 4th–6th decimal.
func (e *coldQuery) query(i int) query {
	root := e.pool[(int(uint64(e.h.seed)%uint64(len(e.pool)))+i*e.stride)%len(e.pool)]
	switch i % 5 {
	case 0:
		return query{alg: "bfs", root: root}
	case 1, 3:
		return query{alg: "sssp", root: root}
	case 2:
		return query{alg: "sswp", root: root}
	}
	return query{alg: "pr", alpha: 0.85 + float64(i%400-200)*1e-4 + float64(i/400%100)*1e-6}
}

func (e *coldQuery) op(i int) op {
	q := e.query(i)
	return op{url: e.node.url + "/v1/query", body: mustMarshal(q.request(graphName)), class: classOf(q.alg)}
}

// verify checks every kept reply against a reference solve.
func (e *coldQuery) verify(kept []keptReply, c *checks) {
	for _, k := range kept {
		q := e.query(k.index)
		var resp serve.QueryResponse
		if err := json.Unmarshal(k.body, &resp); err != nil {
			c.fail("request %d: undecodable answer: %v", k.index, err)
			continue
		}
		ref, err := reference(e.g, q)
		if err != nil {
			c.fail("request %d: %v", k.index, err)
			continue
		}
		if resp.Cached {
			c.fail("request %d (%s) was a cache hit; the workload needs misses", k.index, q.alg)
		} else if err := checkResponse(e.g, q, &resp, ref.Values); err != nil {
			c.fail("request %d: %v", k.index, err)
		}
	}
}

func (e *coldQuery) measure(seconds float64, c *checks) (measured, error) {
	before := readUsage()
	ph := e.cl.run(load{gen: e.op, length: time.Duration(seconds * float64(time.Second)), keepEvery: 16})
	used := before.since()
	c.add(len(ph.samples), ph.failed)
	c.gate("cold queries", ph.samples, ph.length, limitCold)
	e.verify(ph.kept, c)
	all := slicePhase(ph.samples, ph.length, nil)
	pr := slicePhase(ph.samples, ph.length, func(s sample) bool { return s.class == classOf("pr") })
	return measured{
		usage: used, ops: len(ph.samples),
		p50: all.p50, p50Sprd: all.p50Spread, p50b: pr.p50, p50bSprd: pr.p50Spread,
		samples: min(all.n, pr.n),
	}, nil
}

func (e *coldQuery) trace(rec *recorder, c *checks) (layers, error) {
	l := layers{}
	probeGraph(l, e.g, e.genTime)
	probeAlgorithms(l, e.g, e.hub, []string{"pr", "sssp", "bfs", "cc"})

	// A second server that never listens is the in-process depth: the same
	// request must miss there too.
	inner, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: graphName, Graph: e.g}}})
	if err != nil {
		return nil, err
	}
	defer inner.Shutdown(context.Background())
	h := inner.Handler()
	eng, err := engines.Lookup(engines.Solve)
	if err != nil {
		return nil, err
	}

	depthOps := e.h.count(20)
	var coldOverhead, dispatch, httpHop []time.Duration
	for i := 0; i < depthOps; i++ {
		q := e.query(traceBase + i)
		o := e.op(traceBase + i)
		var viaHTTP, viaHandler reply
		var solved *algorithms.SolveResult
		root, _ := rec.time("client.http", i, 0, func() { viaHTTP = e.cl.post(o.url, o.body) })
		handler, dHandler := rec.time("serve.handler", i, root, func() { viaHandler = inproc(h, "/v1/query", o.body) })
		engine, dEngine := rec.time("engines.solve", i, handler, func() { solved, err = eng.SolveCtx(context.Background(), e.g, q.algorithm()) })
		if err != nil {
			return nil, err
		}
		_, dSolve := rec.time("algorithms.solve", i, engine, func() { _, err = algorithms.SolveCtx(context.Background(), e.g, q.algorithm()) })
		if err != nil {
			return nil, err
		}
		c.add(3, 0)
		var resp serve.QueryResponse
		if viaHTTP.status != http.StatusOK || viaHandler.status != http.StatusOK {
			c.fail("traced request %d: status %d over HTTP, %d in process", i, viaHTTP.status, viaHandler.status)
			continue
		}
		if err := json.Unmarshal(viaHandler.body, &resp); err != nil {
			return nil, err
		}
		rec.time("serve.encode", i, handler, func() { mustMarshal(&resp) })
		if err := checkResponse(e.g, q, &resp, solved.Values); err != nil {
			c.fail("traced request %d: %v", i, err)
		}
		// The same request again is a hit at both depths: their difference
		// is the socket alone.
		_, hitHTTP := rec.time("client.http.hit", i, 0, func() { e.cl.post(o.url, o.body) })
		_, hitHandler := rec.time("serve.handler.hit", i, 0, func() { inproc(h, "/v1/query", o.body) })
		coldOverhead = append(coldOverhead, dHandler-dEngine)
		dispatch = append(dispatch, dEngine-dSolve)
		httpHop = append(httpHop, hitHTTP-hitHandler)
	}
	l.set("serve.handler_cold_overhead_us", us(medianDuration(coldOverhead)))
	l.set("engines.dispatch_overhead_us", us(medianDuration(dispatch)))
	l.set("serve.http_hop_us", us(medianDuration(httpHop)))

	// A fixed-count closed-loop pass gives the client layer its per-class
	// medians with exact sample counts.
	servers := []*serve.Server{e.node.srv}
	before := readShares(servers)
	ph := e.cl.run(load{gen: func(i int) op { return e.op(traceBase + depthOps + i) }, count: e.h.count(160), keepEvery: 16})
	c.add(len(ph.samples), ph.failed)
	e.verify(relabel(ph.kept, traceBase+depthOps), c)
	clientTails(l, ph.samples, limitCold)
	serveShares(l, servers, before)
	wide := newClient(e.h.nproc)
	defer wide.close()
	base := traceBase + depthOps + e.h.count(160)
	full := wide.run(load{gen: func(i int) op { return e.op(base + i) }, count: e.h.count(160), keepEvery: 16})
	c.add(len(full.samples), full.failed)
	e.verify(relabel(full.kept, base), c)
	l.set("client.capacity_rps", float64(len(full.samples)-full.failed)/full.length.Seconds())

	if err := probeServeCached(l, inner, query{alg: "pr"}); err != nil {
		return nil, err
	}
	hit := e.op(traceBase) // cached on the listening server by the depth pass
	l.set("client.trace_overhead_pct", traceOverhead(rec, func(r *recorder, rep int) {
		for i := 0; i < 50; i++ {
			r.time("client.http.hit", depthOps+rep*50+i, 0, func() { e.cl.post(hit.url, hit.body) })
		}
	}))
	return l, nil
}

// relabel shifts kept reply indices back onto the request list.
func relabel(kept []keptReply, base int) []keptReply {
	for i := range kept {
		kept[i].index += base
	}
	return kept
}

// traceOverhead runs the same pass with and without span recording, three
// times each in turn, and returns the traced − untraced difference of the
// median pass times as a share of the untraced one. pass numbers its
// operations from rep, so every recorded repetition has operation ids of its
// own.
func traceOverhead(rec *recorder, pass func(r *recorder, rep int)) float64 {
	var with, without []time.Duration
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		pass(nil, rep)
		without = append(without, time.Since(start))
		start = time.Now()
		pass(rec, rep)
		with = append(with, time.Since(start))
	}
	base := medianDuration(without)
	return 100 * float64(medianDuration(with)-base) / float64(base)
}

func (e *coldQuery) close() error {
	e.cl.close()
	return e.node.shutdown()
}
