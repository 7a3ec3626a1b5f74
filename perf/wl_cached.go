package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/serve"
)

// cachedFleet: a dserve.Router in front of three replicas of a WG-shape
// tiny graph; eight prewarmed query shapes are cycled, so every request is
// a cache hit. The measured window is open loop at a quarter of the frozen
// capacity R, timed from each request's due time: half of it through the
// router and half straight to one worker, so the difference is what the
// router hop costs a client. Closed-loop capacity and the medians at R/2 and
// 3R/4 differ by 17–30 % between identical runs on the shared 2-core
// reference box, so they are measured in the traced pass and carry no bound.
type cachedFleet struct {
	h       *harness
	g       *graph.CSR
	genTime time.Duration
	shapes  []query
	bodies  [][]byte
	want    [][]float64 // reference values per shape
	fleet   *fleet
	cl      *client // one connection: set-up and the depth pass
	wide    *client // capacityConns connections: the load phases
}

// capacityConns is how many connections per core the load phases may use.
// The capacity phase keeps them all busy: two requests in flight per core
// leave the five goroutines a request crosses waiting on each other, and
// the rate then follows the scheduler, not the code.
const capacityConns = 8

func setupCachedFleet(h *harness) (env, error) {
	g, genTime, err := h.buildGraph("WG", gen.Tiny)
	if err != nil {
		return nil, err
	}
	hub, pool, err := rootPool(g)
	if err != nil {
		return nil, err
	}
	other := pool[int(uint64(h.seed)%uint64(len(pool)))]
	e := &cachedFleet{h: h, g: g, genTime: genTime, shapes: []query{
		{alg: "pr"}, {alg: "pr", alpha: 0.8},
		{alg: "sssp", root: hub}, {alg: "sssp", root: other},
		{alg: "bfs", root: hub}, {alg: "bfs", root: other},
		{alg: "sswp", root: hub}, {alg: "cc"},
	}}
	for _, q := range e.shapes {
		ref, err := reference(g, q)
		if err != nil {
			return nil, err
		}
		e.want = append(e.want, ref.Values)
		e.bodies = append(e.bodies, mustMarshal(q.request(graphName)))
	}
	if e.fleet, err = bootFleet(g, ""); err != nil {
		return nil, err
	}
	e.cl, e.wide = newClient(1), newClient(capacityConns*h.nproc)
	// Prewarm every replica directly (reads rotate across them), then make
	// one pass through the router, which must see only hits.
	for _, n := range e.fleet.nodes {
		for i, q := range e.shapes {
			resp, _, err := e.cl.queryVia(n.url, graphName, q)
			if err == nil {
				err = checkResponse(g, q, resp, e.want[i])
			}
			if err != nil {
				return nil, errors.Join(fmt.Errorf("prewarm: %w", err), e.close())
			}
		}
	}
	for pass := 0; pass < replicas; pass++ {
		for _, q := range e.shapes {
			resp, _, err := e.cl.queryVia(e.fleet.url, graphName, q)
			if err == nil && !resp.Cached {
				err = fmt.Errorf("%s via router was not a cache hit after prewarm", q.alg)
			}
			if err != nil {
				return nil, errors.Join(err, e.close())
			}
		}
	}
	return e, nil
}

func (e *cachedFleet) op(base string) func(i int) op {
	return func(i int) op {
		s := i % len(e.shapes)
		return op{url: base + "/v1/query", body: e.bodies[s], class: classOf(e.shapes[s].alg)}
	}
}

func (e *cachedFleet) verify(kept []keptReply, c *checks) {
	for _, k := range kept {
		s := k.index % len(e.shapes)
		var resp serve.QueryResponse
		if err := json.Unmarshal(k.body, &resp); err != nil {
			c.fail("request %d: undecodable answer: %v", k.index, err)
		} else if !resp.Cached {
			c.fail("request %d (%s) missed the cache", k.index, e.shapes[s].alg)
		} else if err := checkResponse(e.g, e.shapes[s], &resp, e.want[s]); err != nil {
			c.fail("request %d: %v", k.index, err)
		}
	}
}

// keepEvery is odd so the kept sample walks all eight shapes.
const cachedKeepEvery = 9

// openLoopShares are the open-loop rates as shares of R. The first three
// are the issue's phase B and report a median each; the two at and above R
// exist so that client.max_rate_ok_rps has room to show a gain.
var openLoopShares = []float64{0.25, 0.5, 0.75, 1, 1.25}

var openLoopP50 = []string{"client.p50_ms.r25", "client.p50_ms.r50", "client.p50_ms.r75"}

// phase runs one load phase against base: closed loop at capacity when
// share is 0, else open loop at share·R. l bounds it by time (measured
// window) or by count (traced pass, so counts repeat exactly).
func (e *cachedFleet) phase(base string, l load, share float64, c *checks) phase {
	l.gen, l.keepEvery, l.rate = e.op(base), cachedKeepEvery, share*frozenRate
	p := e.wide.run(l)
	c.add(len(p.samples), p.failed)
	e.verify(p.kept, c)
	return p
}

func (e *cachedFleet) measure(seconds float64, c *checks) (measured, error) {
	half := time.Duration(seconds * float64(time.Second) / 2)
	before := readUsage()
	pb := e.phase(e.fleet.url, load{length: half}, openLoopShares[0], c)
	pc := e.phase(e.fleet.nodes[0].url, load{length: half}, openLoopShares[0], c)
	used := before.since()
	c.gate("via the router", pb.samples, pb.length, limitCached)
	c.gate("direct to a worker", pc.samples, pc.length, limitCached)
	b := slicePhase(pb.samples, pb.length, nil)
	d := slicePhase(pc.samples, pc.length, nil)
	return measured{
		usage: used, ops: len(pb.samples) + len(pc.samples),
		p50: b.p50, p50Sprd: b.p50Spread, p50b: d.p50, p50bSprd: d.p50Spread,
		samples: min(b.n, d.n),
	}, nil
}

func (e *cachedFleet) trace(rec *recorder, c *checks) (layers, error) {
	l := layers{}
	probeGraph(l, e.g, e.genTime)

	// Depth pass: each operation via the router, direct to one worker, in
	// process on that worker's server, and the encode alone.
	worker := e.fleet.nodes[0]
	h := worker.srv.Handler()
	var routerHop, httpHop []time.Duration
	depthOps := e.h.count(200)
	for i := 0; i < depthOps; i++ {
		body := e.bodies[i%len(e.shapes)]
		var viaRouter, viaHandler reply
		root, dRouter := rec.time("client.router", i, 0, func() { viaRouter = e.cl.post(e.fleet.url+"/v1/query", body) })
		direct, dDirect := rec.time("dserve.worker.http", i, root, func() { e.cl.post(worker.url+"/v1/query", body) })
		handler, dHandler := rec.time("serve.handler.hit", i, direct, func() { viaHandler = inproc(h, "/v1/query", body) })
		c.add(1, 0)
		var resp serve.QueryResponse
		if viaRouter.status != http.StatusOK || viaHandler.status != http.StatusOK {
			c.fail("traced request %d: status %d via router, %d in process", i, viaRouter.status, viaHandler.status)
			continue
		}
		if err := json.Unmarshal(viaHandler.body, &resp); err != nil {
			return nil, err
		}
		rec.time("serve.encode", i, handler, func() { mustMarshal(&resp) })
		routerHop = append(routerHop, dRouter-dDirect)
		httpHop = append(httpHop, dDirect-dHandler)
	}
	l.set("dserve.router_hop_us", us(medianDuration(routerHop)))
	l.set("serve.http_hop_us", us(medianDuration(httpHop)))
	if err := probeServeCached(l, worker.srv, e.shapes[0]); err != nil {
		return nil, err
	}
	var digest serve.DigestInfo
	l.set("dserve.digest_ms", ms(medianTime(11, func() {
		if err := e.cl.get(worker.url+"/internal/digest?graph="+graphName, &digest); err != nil {
			panic(err)
		}
	})))

	// Fixed-count load phases: two seconds' worth of requests at R closed
	// loop (capacity) and at each open-loop rate.
	var servers []*serve.Server
	for _, n := range e.fleet.nodes {
		servers = append(servers, n.srv)
	}
	before := readShares(servers)
	pa := e.phase(e.fleet.url, load{count: e.h.count(2 * frozenRate)}, 0, c)
	l.set("client.capacity_rps", float64(len(pa.samples)-pa.failed)/pa.length.Seconds())
	samples := pa.samples
	var late []float64
	maxOK := 0.0
	for i, share := range openLoopShares {
		p := e.phase(e.fleet.url, load{count: e.h.count(int(2 * share * frozenRate))}, share, c)
		// A rate is sustainable when it met the limit and the generator
		// was not falling behind in the last fifth of the phase.
		if p.failed == 0 && !missedLimit(p.samples, p.length, limitCached) && !backlogGrows(p) {
			maxOK = share * frozenRate
		}
		if i >= len(openLoopP50) {
			continue // past saturation the backlog is the latency; only sustainability is read
		}
		samples = append(samples, p.samples...)
		l.set(openLoopP50[i], quantile(latenciesMS(p.samples, nil), 0.5))
		for _, s := range p.samples {
			late = append(late, ms(max(s.late, 0)))
		}
	}
	clientTails(l, samples, limitCached)
	l.set("client.late_p99_ms", tailQuantile(sortedCopy(late), 0.99))
	l.set("client.max_rate_ok_rps", maxOK)

	serveShares(l, servers, before)
	rm := e.fleet.router.Metrics()
	l.set("dserve.router_retries", float64(rm.Counter("router_retries")))
	l.set("dserve.router_mutate_partial", float64(rm.Counter("router_mutate_partial")))
	if d, err := e.fleet.divergence(e.cl); err != nil {
		return nil, err
	} else {
		l.set("dserve.replica_divergence", float64(d))
	}
	l.set("client.trace_overhead_pct", traceOverhead(rec, func(r *recorder, rep int) {
		for i := 0; i < 100; i++ {
			r.time("client.router", depthOps+rep*100+i, 0, func() { e.cl.post(e.fleet.url+"/v1/query", e.bodies[i%len(e.shapes)]) })
		}
	}))
	return l, nil
}

// backlogGrows reports whether requests in the last fifth of an open-loop
// phase were sent later, in the median, than those of the first fifth by
// more than a millisecond.
func backlogGrows(p phase) bool {
	var first, last []float64
	for _, s := range p.samples {
		switch i := int(int64(s.end) * slices / int64(p.length)); {
		case i == 0:
			first = append(first, ms(s.late))
		case i >= slices-1:
			last = append(last, ms(s.late))
		}
	}
	return len(first) > 0 && len(last) > 0 && median(last)-median(first) > 1
}

func (e *cachedFleet) close() error {
	e.cl.close()
	e.wide.close()
	return e.fleet.shutdown()
}
