package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/sim"
	"graphpulse/internal/stream"
)

// Body limits: queries are small; mutation batches carry edge lists.
const (
	maxQueryBody  = 1 << 20  // 1 MiB
	maxMutateBody = 64 << 20 // 64 MiB
	maxTopN       = 1000
)

// Handler returns the server's HTTP routing table. Mount it anywhere; the
// worker pool and registry live on the Server, not the listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.metrics.Render())
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeJSON encodes before touching the response so an encoding failure
// surfaces as a clean 500, never a truncated 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		writeEncodingFailed(w)
		return
	}
	writeBody(w, code, append(buf, '\n'))
}

// bodyPool recycles /v1/query response buffers; a buffer goes back only
// after Write has returned, and Write does not retain it.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeQueryResponse is writeJSON for the hot path: the answer is appended
// straight into a pooled buffer, newline included, with no reflection and
// no intermediate copy.
func writeQueryResponse(w http.ResponseWriter, resp *QueryResponse) {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	buf, err := appendQueryResponse((*bp)[:0], resp)
	if err != nil {
		writeEncodingFailed(w)
		return
	}
	*bp = append(buf, '\n')
	writeBody(w, http.StatusOK, *bp)
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func writeEncodingFailed(w http.ResponseWriter) {
	http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	infos := make([]GraphInfo, 0, len(s.order))
	for _, name := range s.order {
		infos = append(infos, s.graphs[name].info())
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Add("mutate_requests", 1)
	defer func() {
		s.metrics.Observe("mutate_latency_us", time.Since(start).Microseconds())
	}()
	var req MutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutateBody)).Decode(&req); err != nil {
		s.metrics.Add("mutate_errors", 1)
		writeError(w, http.StatusBadRequest, "bad mutate body: %v", err)
		return
	}
	rg, ok := s.graphs[req.Graph]
	if !ok {
		s.metrics.Add("mutate_errors", 1)
		writeError(w, http.StatusNotFound, "unknown graph %q", req.Graph)
		return
	}
	if len(req.Edges) == 0 && len(req.Deletes) == 0 {
		s.metrics.Add("mutate_errors", 1)
		writeError(w, http.StatusBadRequest, "empty edge batch")
		return
	}
	out, err := rg.applyBatch(req.Edges, req.Deletes)
	if err != nil {
		s.metrics.Add("mutate_errors", 1)
		writeError(w, http.StatusBadRequest, "mutate rejected: %v", err)
		return
	}
	s.metrics.Add("mutate_edges_added", int64(out.Added))
	s.metrics.Add("mutate_dedup_skipped", int64(out.Skipped))
	s.metrics.Add("mutate_delete_edges", int64(out.Deleted))
	s.metrics.Add("mutate_delete_missed", int64(out.Missed))
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Add("query_requests", 1)
	defer func() {
		s.metrics.Observe("query_latency_us", time.Since(start).Microseconds())
	}()
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		s.metrics.Add("query_errors", 1)
		writeError(w, http.StatusBadRequest, "bad query body: %v", err)
		return
	}
	rg, ok := s.graphs[req.Graph]
	if !ok {
		s.metrics.Add("query_errors", 1)
		writeError(w, http.StatusNotFound, "unknown graph %q", req.Graph)
		return
	}
	alg, algKey, err := makeAlgorithm(&req)
	if err != nil {
		s.metrics.Add("query_errors", 1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g, epoch := rg.view()
	if req.Root != nil && int(*req.Root) >= g.NumVertices() {
		s.metrics.Add("query_errors", 1)
		writeError(w, http.StatusBadRequest, "root %d out of range (n=%d)", *req.Root, g.NumVertices())
		return
	}

	// Per-request deadline, propagated into the solver through context
	// cancellation (algorithms.SolveCtx).
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	series := seriesKey(req.Graph, algKey)
	if res, ok := s.cache.get(series, epoch); ok {
		s.metrics.Add("query_cache_hits", 1)
		writeQueryResponse(w, buildResponse(&req, g, algKey, res, true, false))
		return
	}
	s.metrics.Add("query_cache_misses", 1)

	f, led, err := s.joinOrLead(series, epoch, rg, g, alg)
	if err != nil {
		// Admission control: the compute queue is full. Never block, never
		// buffer unboundedly — tell the client when to come back.
		s.metrics.Add("query_rejected", 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "compute queue full, retry later")
		return
	}
	if !led {
		s.metrics.Add("query_coalesced", 1)
	}
	defer f.leave()
	select {
	case <-f.done:
	case <-ctx.Done():
		s.metrics.Add("query_deadline_exceeded", 1)
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded waiting for computation")
		return
	}
	if f.err != nil {
		if errors.Is(f.err, sim.ErrCanceled) || errors.Is(f.err, context.DeadlineExceeded) {
			s.metrics.Add("query_deadline_exceeded", 1)
			writeError(w, http.StatusGatewayTimeout, "computation canceled: %v", f.err)
			return
		}
		s.metrics.Add("query_errors", 1)
		writeError(w, http.StatusInternalServerError, "compute failed: %v", f.err)
		return
	}
	writeQueryResponse(w, buildResponse(&req, g, algKey, f.res, false, !led))
}

// joinOrLead coalesces the caller onto an identical in-flight computation
// or starts one on the worker pool. The returned flight has the caller
// registered as a waiter (call leave exactly once). led reports whether
// this caller started the computation; ErrBusy means admission control
// rejected it.
func (s *Server) joinOrLead(series string, epoch uint64, rg *residentGraph, g graph.Adjacency, alg algorithms.Algorithm) (*flight, bool, error) {
	key := cacheKey{series, epoch}
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		f.join()
		s.flightMu.Unlock()
		return f, false, nil
	}
	cctx, cancel := context.WithTimeout(context.Background(), s.cfg.ComputeTimeout)
	f := &flight{done: make(chan struct{}), cancel: cancel}
	f.join()
	s.flights[key] = f
	s.flightMu.Unlock()

	err := s.submit(func() {
		defer cancel()
		res, err := s.compute(cctx, rg, g, epoch, alg, series)
		if err == nil {
			s.cache.put(series, epoch, res)
		} else if errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.DeadlineExceeded) {
			s.metrics.Add("compute_canceled", 1)
		}
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		f.res, f.err = res, err
		close(f.done)
	})
	if err != nil {
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		f.leave()
		return nil, false, err
	}
	return f, true, nil
}

// modeCounter names the counter each restart mode bumps.
var modeCounter = map[stream.Mode]string{
	stream.Warm: "query_warm_starts",
	stream.Cone: "stream_cone_starts",
	stream.Cold: "query_cold_solves",
}

// compute runs one query computation: when a prior epoch's fixed point is
// cached and the mutation history still covers the gap, stream.Restart
// picks the warm start (it runs here on immutable snapshots, outside the
// graph's write lock); otherwise solve cold. Then run the serial solver
// under ctx.
func (s *Server) compute(ctx context.Context, rg *residentGraph, g graph.Adjacency, epoch uint64, alg algorithms.Algorithm, series string) (*cachedResult, error) {
	if s.testComputeStall != nil {
		s.testComputeStall(ctx)
	}
	start := time.Now()
	mode := stream.Cold
	// Only mutable residents have a history, and their view is a *CSR.
	csr, mutable := g.(*graph.CSR)
	if prior, priorEpoch, ok := s.cache.latestBefore(series, epoch); ok && mutable {
		if base, added, removed, ok := rg.since(priorEpoch, epoch); ok {
			alg, mode = stream.Restart(alg, base, csr, added, removed, prior.Values, s.cfg.MaxConeFraction)
			if mode == stream.Cold && len(removed) > 0 {
				s.metrics.Add("stream_replay_fallbacks", 1)
			}
		}
	}

	res, err := algorithms.SolveCtx(ctx, g, alg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	s.metrics.Observe("compute_latency_us", elapsed.Microseconds())
	s.metrics.Add(modeCounter[mode], 1)
	return newCachedResult(res.Values, epoch, string(mode), res.Activations, elapsed.Seconds()), nil
}

// buildResponse projects a cached result onto the slice of the answer the
// request asked for. Sum and Top come from the result's summary — Top is a
// prefix of its ranking (which holds maxTopN pairs, so the prefix is also
// the clamp), shared, not copied: both are immutable and the response only
// ever gets encoded — so the cost is O(top + vertices), whatever n is.
func buildResponse(req *QueryRequest, g graph.Adjacency, algKey string, res *cachedResult, fromCache, coalesced bool) *QueryResponse {
	mode := res.Mode
	if fromCache {
		mode = "cache"
	}
	resp := &QueryResponse{
		Graph:       req.Graph,
		Epoch:       res.Epoch,
		Algorithm:   algKey,
		Engine:      solverName,
		Cached:      fromCache,
		Mode:        mode,
		Coalesced:   coalesced,
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		Activations: res.Activations,
		ComputeSecs: res.ComputeSecs,
		Sum:         res.sum,
	}
	topN := req.Top
	if topN == 0 {
		topN = 10
	}
	if topN > 0 {
		resp.Top = res.top[:min(topN, len(res.top))]
	}
	if len(req.Vertices) > 0 {
		resp.Values = make([]VertexValue, 0, len(req.Vertices))
		for _, v := range req.Vertices {
			if int(v) < len(res.Values) {
				resp.Values = append(resp.Values, VertexValue{Vertex: v, Value: res.Values[int(v)]})
			}
		}
	}
	return resp
}
