package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/serve"
	"graphpulse/internal/stream"
)

// mutateChurn: the cached-fleet topology on a WG-shape mini graph with
// every worker's WAL on a real directory (fsync before ack). One sequential
// client cycles: /v1/mutate inserting 16 seeded edges, then pr, sssp and cc
// re-queries; every fourth cycle the mutate deletes the batch inserted two
// cycles earlier instead. Sequential, so the per-cycle work repeats.
type mutateChurn struct {
	h       *harness
	g       *graph.CSR
	base    []graph.Edge
	genTime time.Duration
	hub     graph.VertexID
	queries []query
	fleet   *fleet
	cl      *client

	rng     *rand.Rand
	used    map[[2]graph.VertexID]bool
	batches map[int][]graph.Edge // live inserted batches by cycle
	cycle   int
}

const (
	batchEdges = 16
	mutateOp   = -1 // sample class of a mutate; queries use their algorithm's class
)

func setupMutateChurn(h *harness) (env, error) {
	g, genTime, err := h.buildGraph("WG", gen.Mini)
	if err != nil {
		return nil, err
	}
	hub, _, err := rootPool(g)
	if err != nil {
		return nil, err
	}
	e := &mutateChurn{
		h: h, g: g, base: g.Edges(), genTime: genTime, hub: hub,
		queries: []query{{alg: "pr"}, {alg: "sssp", root: hub}, {alg: "cc"}},
		rng:     rand.New(rand.NewSource(h.seed)),
		used:    map[[2]graph.VertexID]bool{},
		batches: map[int][]graph.Edge{},
	}
	if e.fleet, err = bootFleet(g, h.tmp); err != nil {
		return nil, err
	}
	e.cl = newClient(1)
	// Every replica solves each query once at epoch 0, so the first
	// re-query after a mutation warm-starts instead of solving cold.
	for _, n := range e.fleet.nodes {
		for _, q := range e.queries {
			if _, _, err := e.cl.queryVia(n.url, graphName, q); err != nil {
				return nil, errors.Join(fmt.Errorf("prewarm: %w", err), e.close())
			}
		}
	}
	return e, nil
}

// newBatch draws batchEdges seeded edges that are neither in the base graph
// nor drawn before, so a later delete by (src, dst) removes exactly them.
func (e *mutateChurn) newBatch(rng *rand.Rand) []graph.Edge {
	n := e.g.NumVertices()
	batch := make([]graph.Edge, 0, batchEdges)
	for len(batch) < batchEdges {
		src, dst := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		nb := e.g.Neighbors(src)
		i := sort.Search(len(nb), func(i int) bool { return nb[i] >= dst })
		if src == dst || (i < len(nb) && nb[i] == dst) || e.used[[2]graph.VertexID{src, dst}] {
			continue
		}
		e.used[[2]graph.VertexID{src, dst}] = true
		batch = append(batch, graph.Edge{Src: src, Dst: dst, Weight: float32(rng.Float64()*0.99 + 0.01)})
	}
	return batch
}

// nextMutation advances the cycle counter and returns the cycle's mutate
// request, updating the mirror of live batches.
func (e *mutateChurn) nextMutation() (cycle int, req serve.MutateRequest, deletes bool) {
	cycle = e.cycle
	e.cycle++
	req.Graph = graphName
	if cycle%4 == 3 {
		victim := e.batches[cycle-2]
		delete(e.batches, cycle-2)
		for _, ed := range victim {
			req.Deletes = append(req.Deletes, serve.EdgeJSON{Src: ed.Src, Dst: ed.Dst})
		}
		return cycle, req, true
	}
	batch := e.newBatch(e.rng)
	e.batches[cycle] = batch
	for _, ed := range batch {
		req.Edges = append(req.Edges, serve.EdgeJSON{Src: ed.Src, Dst: ed.Dst, Weight: ed.Weight})
	}
	return cycle, req, false
}

// mirror rebuilds the graph the fleet should hold now: base plus live batches.
func (e *mutateChurn) mirror() (*graph.CSR, error) {
	edges := append([]graph.Edge(nil), e.base...)
	cycles := make([]int, 0, len(e.batches))
	for c := range e.batches {
		cycles = append(cycles, c)
	}
	sort.Ints(cycles)
	for _, c := range cycles {
		edges = append(edges, e.batches[c]...)
	}
	return graph.FromEdges(e.g.NumVertices(), edges, true)
}

func checkMutate(r reply, deletes bool) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("mutate: status %d: %s", r.status, r.body)
	}
	var resp serve.MutateResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	got := resp.Added
	if deletes {
		got = resp.Deleted
	}
	if got != batchEdges {
		return fmt.Errorf("mutate applied %d of %d edges (%+v)", got, batchEdges, resp)
	}
	return nil
}

// checked is a cycle kept for the correctness gate: the graph the fleet
// should have held and the answers it gave.
type checked struct {
	cycle   int
	graph   *graph.CSR
	answers []serve.QueryResponse
}

// runCycle sends one mutate and the three re-queries through the router.
// onMutate, when set, sees the mutate request first (the traced pass replays
// it at the other depths).
func (e *mutateChurn) runCycle(start time.Time, rec *recorder, c *checks, keep bool, onMutate func(cycle, root int, body []byte, d time.Duration)) ([]sample, *checked, error) {
	cycle, req, deletes := e.nextMutation()
	body := mustMarshal(req)
	var samples []sample
	var r reply
	root, d := rec.time("client.router.mutate", cycle, 0, func() { r = e.cl.post(e.fleet.url+"/v1/mutate", body) })
	err := checkMutate(r, deletes)
	s := sample{end: time.Since(start), lat: d, class: mutateOp, ok: err == nil}
	c.add(1, 0)
	if !s.ok {
		c.fail("cycle %d: %v", cycle, err)
	}
	samples = append(samples, s)
	if onMutate != nil {
		onMutate(cycle, root, body, d)
	}
	var kept *checked
	if keep {
		g, err := e.mirror()
		if err != nil {
			return nil, nil, err
		}
		kept = &checked{cycle: cycle, graph: g}
	}
	for _, q := range e.queries {
		var resp *serve.QueryResponse
		_, d := rec.time("client.router.query."+q.alg, cycle, 0, func() { resp, _, err = e.cl.queryVia(e.fleet.url, graphName, q) })
		s := sample{end: time.Since(start), lat: d, class: classOf(q.alg), ok: err == nil}
		c.add(1, 0)
		if !s.ok {
			c.fail("cycle %d: %s re-query: %v", cycle, q.alg, err)
		}
		samples = append(samples, s)
		if kept != nil && err == nil {
			kept.answers = append(kept.answers, *resp)
		}
	}
	return samples, kept, nil
}

// verify solves each kept cycle's graph cold and compares the fleet's
// answers; it returns the warm and cold activation totals of those cycles.
func (e *mutateChurn) verify(kept []*checked, c *checks) (warm, cold int64) {
	for _, k := range kept {
		if len(k.answers) != len(e.queries) {
			continue // the failed query is already counted
		}
		for i, q := range e.queries {
			ref := algorithms.Solve(k.graph, q.algorithm())
			if err := checkResponse(k.graph, q, &k.answers[i], ref.Values); err != nil {
				c.fail("cycle %d: %v", k.cycle, err)
			}
			if m := k.answers[i].Mode; m == "warm" || m == "cone" {
				warm += k.answers[i].Activations
				cold += ref.Activations
			}
		}
	}
	return warm, cold
}

func (e *mutateChurn) converged(c *checks) (int, error) {
	d, err := e.fleet.divergence(e.cl)
	c.add(1, 0)
	if err == nil && d > 0 {
		c.fail("%d of %d replicas differ in (epoch, digest) after the window", d, replicas)
	}
	return d, err
}

// maxChecked bounds the cold reference solves of the correctness gate.
const maxChecked = 5

func (e *mutateChurn) measure(seconds float64, c *checks) (measured, error) {
	window := time.Duration(seconds * float64(time.Second))
	var samples []sample
	var kept []*checked
	before := readUsage()
	start := time.Now()
	for time.Since(start) < window {
		keep := e.cycle%8 == 5 && len(kept) < maxChecked
		s, k, err := e.runCycle(start, nil, c, keep, nil)
		if err != nil {
			return measured{}, err
		}
		samples = append(samples, s...)
		if k != nil {
			kept = append(kept, k)
		}
	}
	length := time.Since(start)
	used := before.since()
	c.gate("mutates and warm re-queries", samples, length, limitWarm)
	e.verify(kept, c)
	if _, err := e.converged(c); err != nil {
		return measured{}, err
	}
	q := slicePhase(samples, length, func(s sample) bool { return s.class != mutateOp })
	m := slicePhase(samples, length, func(s sample) bool { return s.class == mutateOp })
	return measured{
		usage: used, ops: len(samples),
		p50: q.p50, p50Sprd: q.p50Spread, p50b: m.p50, p50bSprd: m.p50Spread,
		samples: min(q.n, m.n),
	}, nil
}

func (e *mutateChurn) trace(rec *recorder, c *checks) (layers, error) {
	l := layers{}
	probeGraph(l, e.g, e.genTime)
	probeAlgorithms(l, e.g, e.hub, []string{"pr", "sssp", "cc"})
	if err := e.probeStream(l); err != nil {
		return nil, err
	}

	// The other depths of a mutate, each on its own server because a mutate
	// changes state: one worker with a WAL, one without, one in process.
	walNode, err := bootNode(e.g, true, filepath.Join(e.h.tmp, "wal-single"))
	if err != nil {
		return nil, err
	}
	defer walNode.shutdown()
	plainNode, err := bootNode(e.g, true, "")
	if err != nil {
		return nil, err
	}
	defer plainNode.shutdown()
	inner, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: graphName, Graph: e.g}}})
	if err != nil {
		return nil, err
	}
	defer inner.Shutdown(context.Background())
	h := inner.Handler()

	cycles, depthCycles := e.h.count(100), e.h.count(24)
	var fanout, walAppend, apply []time.Duration
	replay := func(cycle, root int, body []byte, viaRouter time.Duration) {
		wal, dWAL := rec.time("dserve.worker.mutate.wal", cycle, root, func() { e.cl.post(walNode.url+"/v1/mutate", body) })
		plain, dPlain := rec.time("dserve.worker.mutate", cycle, wal, func() { e.cl.post(plainNode.url+"/v1/mutate", body) })
		_, dApply := rec.time("serve.handler.mutate", cycle, plain, func() { inproc(h, "/v1/mutate", body) })
		fanout = append(fanout, viaRouter-dWAL)
		walAppend = append(walAppend, dWAL-dPlain)
		apply = append(apply, dApply)
	}
	var servers []*serve.Server
	for _, n := range e.fleet.nodes {
		servers = append(servers, n.srv)
	}
	before := readShares(servers)
	var samples []sample
	var kept []*checked
	start := time.Now()
	for i := 0; i < cycles; i++ {
		onMutate := replay
		if i >= depthCycles {
			onMutate = nil
		}
		s, k, err := e.runCycle(start, rec, c, i%4 == 1 && len(kept) < maxChecked, onMutate)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
		if k != nil {
			kept = append(kept, k)
		}
	}
	l.set("dserve.fanout_mutate_ms", ms(medianDuration(fanout)))
	l.set("dserve.wal_append_ms", ms(medianDuration(walAppend)))
	l.set("serve.mutate_apply_ms", ms(medianDuration(apply)))

	if warm, cold := e.verify(kept, c); cold > 0 {
		l.set("stream.warm_activation_ratio", float64(warm)/float64(cold))
	}
	diverged, err := e.converged(c)
	if err != nil {
		return nil, err
	}
	l.set("dserve.replica_divergence", float64(diverged))

	walBytes, err := dirBytes(filepath.Join(e.h.tmp, "wal0"))
	if err != nil {
		return nil, err
	}
	l.set("dserve.wal_bytes_per_edge", float64(walBytes)/float64(cycles*batchEdges))

	clientTails(l, samples, limitWarm)
	mutates := latenciesMS(samples, func(s sample) bool { return s.class == mutateOp })
	l.set("client.samples.mutate", float64(len(mutates)))
	l.set("client.mutate_p90_ms", tailQuantile(mutates, 0.90))

	modes := map[string]int64{}
	for _, n := range e.fleet.nodes {
		m := n.srv.Metrics()
		modes["warm"] += m.Counter("query_warm_starts")
		modes["cone"] += m.Counter("stream_cone_starts")
		modes["cold"] += m.Counter("query_cold_solves")
	}
	serveShares(l, servers, before)
	// The prewarm's cold solves (one per query per replica) are set-up, not
	// the pass.
	modes["cold"] -= int64(replicas * len(e.queries))
	if total := modes["warm"] + modes["cone"] + modes["cold"]; total > 0 {
		for m, n := range modes {
			l.set("stream.mode_share."+m, float64(n)/float64(total))
		}
	}
	rm := e.fleet.router.Metrics()
	l.set("dserve.router_retries", float64(rm.Counter("router_retries")))
	l.set("dserve.router_mutate_partial", float64(rm.Counter("router_mutate_partial")))

	if err := probeServeCached(l, inner, query{alg: "pr"}); err != nil {
		return nil, err
	}
	var digest serve.DigestInfo
	l.set("dserve.digest_ms", ms(medianTime(5, func() {
		if err := e.cl.get(walNode.url+"/internal/digest?graph="+graphName, &digest); err != nil {
			panic(err)
		}
	})))
	hit := mustMarshal(e.queries[2].request(graphName))
	l.set("client.trace_overhead_pct", traceOverhead(rec, func(r *recorder, rep int) {
		for i := 0; i < 30; i++ {
			r.time("client.router.query.cc", cycles+rep*30+i, 0, func() { e.cl.post(e.fleet.url+"/v1/query", hit) })
		}
	}))
	return l, nil
}

// probeStream times the warm-start planning a re-query does, directly: the
// insertion seeds, and the restart plan after an insert and after a delete
// of one 16-edge batch, on converged sssp state.
func (e *mutateChurn) probeStream(l layers) error {
	// The probe batch comes from its own generator so the request list does
	// not move; its edges are released again for the list to draw.
	batch := e.newBatch(rand.New(rand.NewSource(^e.h.seed)))
	for _, ed := range batch {
		delete(e.used, [2]graph.VertexID{ed.Src, ed.Dst})
	}
	grown, err := graph.FromEdges(e.g.NumVertices(), append(append([]graph.Edge(nil), e.base...), batch...), true)
	if err != nil {
		return err
	}
	alg := algorithms.NewSSSP(e.hub)
	before := algorithms.Solve(e.g, alg).Values
	after := algorithms.Solve(grown, alg).Values
	l.set("algorithms.warm_seed_ms", ms(medianTime(11, func() {
		state := append([]float64(nil), before...)
		algorithms.WarmStart(alg, state, alg.SeedInsertions(e.g, batch, state))
	})))
	var planErr error
	l.set("stream.plan_restart_ms.insert", ms(medianTime(5, func() {
		_, planErr = stream.PlanRestart(alg, grown, batch, nil, before, stream.DefaultMaxConeFraction)
	})))
	l.set("stream.plan_restart_ms.delete", ms(medianTime(5, func() {
		if planErr == nil {
			_, planErr = stream.PlanRestart(alg, e.g, nil, batch, after, stream.DefaultMaxConeFraction)
		}
	})))
	if planErr != nil {
		return planErr
	}
	const appends = 256
	log := stream.NewLog(e.base)
	now := time.Now()
	log.Append(batch, now) // the first append grows the base-sized array once
	d := medianTime(1, func() {
		for i := 0; i < appends; i++ {
			log.Append(batch, now)
		}
	})
	l.set("stream.log_append_ns_per_edge", float64(d.Nanoseconds())/float64(appends*batchEdges))
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		total += info.Size()
		return err
	})
	return total, err
}

func (e *mutateChurn) close() error {
	e.cl.close()
	return e.fleet.shutdown()
}
