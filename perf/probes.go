package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/serve"
)

// layers collects per-layer metric values by catalogue name.
type layers map[string]float64

func (l layers) set(name string, v float64) {
	if _, ok := layerDefByName(name); !ok {
		panic("metric not in the catalogue: " + name)
	}
	l[name] = v
}

// medianTime runs fn k times and returns the median duration.
func medianTime(k int, fn func()) time.Duration {
	d := make([]time.Duration, k)
	for i := range d {
		start := time.Now()
		fn()
		d[i] = time.Since(start)
	}
	return medianDuration(d)
}

func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

var sink int // defeats dead-code elimination of probe loops

// probeGraph measures the graph substrate on g: generator rate (from the
// timed build), edge list → CSR, and a full row scan through the three
// Adjacency calls the solvers make per activated vertex.
func probeGraph(l layers, g *graph.CSR, genTime time.Duration) {
	m := float64(g.NumEdges())
	l.set("gen.rmat_medges_per_s", m/1e6/genTime.Seconds())
	edges := g.Edges()
	build := medianTime(3, func() {
		if _, err := graph.FromEdges(g.NumVertices(), edges, true); err != nil {
			panic(err)
		}
	})
	l.set("graph.from_edges_ns_per_edge", float64(build.Nanoseconds())/m)
	l.set("graph.row_scan_ns_per_edge", float64(medianTime(5, func() { rowScan(g) }).Nanoseconds())/m)
	l.set("graph.bytes_per_edge", float64(csrBytes(g))/m)
}

func rowScan(g graph.Adjacency) {
	acc := 0
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		acc += g.OutDegree(id) + len(g.NeighborWeights(id))
		for _, d := range g.Neighbors(id) {
			acc += int(d)
		}
	}
	sink += acc
}

// probeAlgorithms times the serial solver per algorithm on g and returns
// the per-algorithm median solve time. Activation and edge counts repeat
// exactly at a fixed seed.
func probeAlgorithms(l layers, g *graph.CSR, hub graph.VertexID, algs []string) map[string]time.Duration {
	times := map[string]time.Duration{}
	var mallocs, bytesAlloc uint64
	for _, a := range algs {
		q := query{alg: a, root: hub}
		var res *algorithms.SolveResult
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		times[a] = medianTime(3, func() { res = algorithms.Solve(g, q.algorithm()) })
		runtime.ReadMemStats(&after)
		mallocs += (after.Mallocs - before.Mallocs) / 3
		bytesAlloc += (after.TotalAlloc - before.TotalAlloc) / 3
		l.set("algorithms.solve_ns_per_edge."+a, float64(times[a].Nanoseconds())/float64(res.Emitted))
		l.set("algorithms.activations_per_solve."+a, float64(res.Activations))
		l.set("algorithms.edges_per_solve."+a, float64(res.Emitted))
	}
	l.set("algorithms.allocs_per_solve", float64(mallocs)/float64(len(algs)))
	l.set("algorithms.alloc_kb_per_solve", float64(bytesAlloc)/1024/float64(len(algs)))
	return times
}

// probeRuntime reads the Go runtime after a traced pass: the heap the
// process holds from the OS at its end (its high-water mark, short of what
// the scavenger has returned) and the GC pauses since pausedBefore.
func probeRuntime(l layers, pausedBefore uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.set("runtime.heap_peak_mb", float64(m.HeapSys-m.HeapReleased)/(1<<20))
	l.set("runtime.gc_pause_total_ms", float64(m.PauseTotalNs-pausedBefore)/1e6)
	l.set("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	l.set("runtime.num_cpu", float64(runtime.NumCPU()))
}

// inproc calls a handler without a socket: the depth below loopback HTTP.
func inproc(h http.Handler, path string, body []byte) reply {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return reply{status: w.Code, body: w.Body.Bytes()}
}

// probeServeCached measures what a cache hit costs inside one server, with
// no socket: the whole handler, and json.Marshal of the two answer shapes.
func probeServeCached(l layers, srv *serve.Server, q query) error {
	req := q.request(graphName)
	small, err := json.Marshal(req)
	if err != nil {
		return err
	}
	for v := uint32(0); v < 1000; v++ {
		req.Vertices = append(req.Vertices, v)
	}
	big, err := json.Marshal(req)
	if err != nil {
		return err
	}
	h := srv.Handler()
	var top10, values1000 serve.QueryResponse
	for _, c := range []struct {
		body []byte
		into *serve.QueryResponse
	}{{small, &top10}, {big, &values1000}} {
		r := inproc(h, "/v1/query", c.body) // first call may compute; the rest hit
		if r.status != http.StatusOK {
			return fmt.Errorf("in-process query: status %d: %s", r.status, r.body)
		}
		if err := json.Unmarshal(inproc(h, "/v1/query", c.body).body, c.into); err != nil {
			return err
		}
		if !c.into.Cached {
			return fmt.Errorf("in-process repeat of %s was not a cache hit", q.alg)
		}
	}
	l.set("serve.handler_cached_us", us(medianTime(101, func() { inproc(h, "/v1/query", small) })))
	l.set("serve.encode_us.top10", us(medianTime(101, func() { mustMarshal(&top10) })))
	l.set("serve.encode_us.values1000", us(medianTime(101, func() { mustMarshal(&values1000) })))
	l.set("serve.snapshot_export_ms", ms(medianTime(3, func() {
		if _, err := srv.ExportSnapshot(graphName); err != nil {
			panic(err)
		}
	})))
	return nil
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// shareCounters is a reading of the admission and cache counters of the
// servers behind a workload.
type shareCounters struct{ requests, hits, coalesced, rejected, deadline int64 }

func readShares(servers []*serve.Server) shareCounters {
	var c shareCounters
	for _, s := range servers {
		m := s.Metrics()
		c.requests += m.Counter("query_requests")
		c.hits += m.Counter("query_cache_hits")
		c.coalesced += m.Counter("query_coalesced")
		c.rejected += m.Counter("query_rejected")
		c.deadline += m.Counter("query_deadline_exceeded")
	}
	return c
}

// serveShares sets the serve.*_share metrics from the counters the servers
// moved since the reading before, so they describe the load pass alone.
func serveShares(l layers, servers []*serve.Server, before shareCounters) {
	now := readShares(servers)
	requests := float64(now.requests - before.requests)
	if requests == 0 {
		return
	}
	l.set("serve.cache_hit_share", float64(now.hits-before.hits)/requests)
	l.set("serve.coalesced_share", float64(now.coalesced-before.coalesced)/requests)
	l.set("serve.rejected_share", float64(now.rejected-before.rejected)/requests)
	l.set("serve.deadline_share", float64(now.deadline-before.deadline)/requests)
}

// clientTails fills the client layer from the query samples of a traced
// pass; limit is the workload's latency limit.
func clientTails(l layers, samples []sample, limit time.Duration) {
	var queries, over int
	perClass := make([][]float64, len(algClasses))
	for _, s := range samples {
		if s.class < 0 {
			continue
		}
		queries++
		if s.lat > limit {
			over++
		}
		perClass[s.class] = append(perClass[s.class], ms(s.lat))
	}
	all := latenciesMS(samples, func(s sample) bool { return s.class >= 0 })
	l.set("client.samples.query", float64(queries))
	l.set("client.query_p90_ms", tailQuantile(all, 0.90))
	l.set("client.query_p99_ms", tailQuantile(all, 0.99))
	for c, lat := range perClass {
		if len(lat) > 0 {
			l.set("client.query_p50_ms."+algClasses[c], median(lat))
		}
	}
	if queries > 0 {
		l.set("client.over_limit_share", float64(over)/float64(queries))
	}
}
