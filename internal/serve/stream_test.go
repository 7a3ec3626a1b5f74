package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/stream"
)

// sparseGraph is a 200-vertex graph with a known, tiny edge set, so
// tests asserting exact delete/miss counts cannot collide with edges the
// random test graph happens to contain.
func sparseGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := graph.FromEdges(200, []graph.Edge{
		{Src: 10, Dst: 11, Weight: 1}, {Src: 11, Dst: 12, Weight: 1},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMutateDedupAndDeleteCounts pins the per-edge accounting of
// /v1/mutate: in-batch duplicate insertions are skipped (not silently
// double-applied), deletes report how many live edges they removed and
// how many ops matched nothing, and the counters agree.
func TestMutateDedupAndDeleteCounts(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Graphs = []GraphSpec{{Name: "g", Graph: sparseGraph(t)}}
	})
	g, _ := s.graphs["g"].snapshot()
	before := g.NumEdges()

	code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Graph: "g",
		Edges: []EdgeJSON{
			{Src: 0, Dst: 7, Weight: 1}, {Src: 0, Dst: 7, Weight: 1}, // exact dup
			{Src: 0, Dst: 7, Weight: 2}, // same pair, different weight: kept
			{Src: 3, Dst: 9, Weight: 1}, {Src: 3, Dst: 9, Weight: 1},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", code, body)
	}
	var mut MutateResponse
	if err := json.Unmarshal(body, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.Added != 3 || mut.Skipped != 2 {
		t.Fatalf("insert accounting: added=%d skipped=%d, want 3/2", mut.Added, mut.Skipped)
	}
	if mut.NumEdges != before+3 {
		t.Fatalf("edges = %d, want %d", mut.NumEdges, before+3)
	}

	// Delete the (0,7) pair — both live copies go, weight ignored — plus a
	// pair that was never inserted.
	code, body, _ = postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Graph:   "g",
		Deletes: []EdgeJSON{{Src: 0, Dst: 7}, {Src: 190, Dst: 191}},
	})
	if code != http.StatusOK {
		t.Fatalf("delete: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.Deleted != 2 || mut.Missed != 1 {
		t.Fatalf("delete accounting: deleted=%d missed=%d, want 2/1", mut.Deleted, mut.Missed)
	}
	if mut.NumEdges != before+1 {
		t.Fatalf("edges after delete = %d, want %d", mut.NumEdges, before+1)
	}

	m := s.Metrics()
	for name, want := range map[string]int64{
		"mutate_edges_added":   3,
		"mutate_dedup_skipped": 2,
		"mutate_delete_edges":  2,
		"mutate_delete_missed": 1,
	} {
		if got := m.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestNoEffectBatchKeepsEpoch checks that a batch with no net effect
// (all-miss deletes) answers with the current version without burning an
// epoch — repeated idempotent retries must not invalidate the cache.
func TestNoEffectBatchKeepsEpoch(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Graphs = []GraphSpec{{Name: "g", Graph: sparseGraph(t)}}
	})
	code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Graph:   "g",
		Deletes: []EdgeJSON{{Src: 190, Dst: 191}},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", code, body)
	}
	var mut MutateResponse
	if err := json.Unmarshal(body, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.Epoch != 0 || mut.Missed != 1 {
		t.Fatalf("no-effect batch: epoch=%d missed=%d, want 0/1", mut.Epoch, mut.Missed)
	}
	if _, epoch := s.graphs["g"].snapshot(); epoch != 0 {
		t.Fatalf("no-effect batch bumped epoch to %d", epoch)
	}
}

// TestDeleteThenQueryConeStarts covers the deletion warm path end to end:
// converge, delete a live edge, and re-query — the answer must come from
// a cone-restricted warm start ("cone" mode) and still match a
// from-scratch solve on the post-delete graph.
func TestDeleteThenQueryConeStarts(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxConeFraction = 1.0 })
	g, _ := s.graphs["g"].snapshot()
	all := vertexRange(g.NumVertices())

	cold := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3)), Vertices: all})
	if cold.Mode != "cold" {
		t.Fatalf("first query mode = %q, want cold", cold.Mode)
	}

	victim := g.Edges()[0]
	code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Graph:   "g",
		Deletes: []EdgeJSON{{Src: uint32(victim.Src), Dst: uint32(victim.Dst)}},
	})
	if code != http.StatusOK {
		t.Fatalf("delete: HTTP %d: %s", code, body)
	}

	warm := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3)), Vertices: all})
	if warm.Mode != "cone" {
		t.Fatalf("post-delete query mode = %q, want cone", warm.Mode)
	}
	if got := s.Metrics().Counter("stream_cone_starts"); got != 1 {
		t.Errorf("stream_cone_starts = %d, want 1", got)
	}

	ng, _ := s.graphs["g"].snapshot()
	alg := algorithms.NewSSSP(3)
	want := algorithms.Solve(ng, alg)
	got := valuesOf(warm, ng.NumVertices())
	if err := conformance.CompareValues("cone-vs-cold", got, want.Values, conformance.Tolerance(alg, ng)); err != nil {
		t.Error(err)
	}
}

// TestConeReplayFallback pins the degradation path: with MaxConeFraction
// near zero every deletion cone is "too big", so the re-query falls back
// to a cold replay (and says so in the counter) instead of warm-starting.
func TestConeReplayFallback(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxConeFraction = 1e-9 })
	g, _ := s.graphs["g"].snapshot()

	doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "cc"})
	victim := g.Edges()[0]
	code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Graph:   "g",
		Deletes: []EdgeJSON{{Src: uint32(victim.Src), Dst: uint32(victim.Dst)}},
	})
	if code != http.StatusOK {
		t.Fatalf("delete: HTTP %d: %s", code, body)
	}
	r := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "cc"})
	if r.Mode != "cold" {
		t.Fatalf("fallback query mode = %q, want cold", r.Mode)
	}
	m := s.Metrics()
	if got := m.Counter("stream_replay_fallbacks"); got != 1 {
		t.Errorf("stream_replay_fallbacks = %d, want 1", got)
	}
	if got := m.Counter("stream_cone_starts"); got != 0 {
		t.Errorf("stream_cone_starts = %d, want 0", got)
	}
}

// TestStreamEndpoint drives /v1/stream end to end: an NDJSON body mixing
// inserts, a duplicate, and deletes, batched smaller than the op count so
// multiple epochs apply, and a final graph state that matches the ops.
func TestStreamEndpoint(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Graphs = []GraphSpec{{Name: "g", Graph: sparseGraph(t)}}
		c.StreamBatch = 3
	})
	g, _ := s.graphs["g"].snapshot()
	before := g.NumEdges()

	var b strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, `{"src":%d,"dst":%d,"weight":1}`+"\n", i, i+100)
	}
	b.WriteString(`{"op":"insert","src":0,"dst":100,"weight":1}` + "\n") // dup of the first
	b.WriteString(`{"op":"delete","src":5,"dst":105}` + "\n")
	b.WriteString(`{"op":"delete","src":180,"dst":181}` + "\n") // never existed
	b.WriteString("\n")                                         // blank lines are skipped

	resp, err := http.Post(ts.URL+"/v1/stream?graph=g", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d: %s", resp.StatusCode, body)
	}
	var sr StreamResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Ops != 9 || sr.Batches != 3 {
		t.Fatalf("ops=%d batches=%d, want 9 ops in 3 batches", sr.Ops, sr.Batches)
	}
	// The duplicate falls in a later batch than the original, so it is a
	// legitimate multigraph re-insert, not an in-batch dup.
	if sr.Added != 7 || sr.Skipped != 0 {
		t.Fatalf("added=%d skipped=%d, want 7/0", sr.Added, sr.Skipped)
	}
	if sr.Deleted != 1 || sr.Missed != 1 {
		t.Fatalf("deleted=%d missed=%d, want 1/1", sr.Deleted, sr.Missed)
	}
	if sr.NumEdges != before+6 {
		t.Fatalf("final edges = %d, want %d", sr.NumEdges, before+6)
	}
	m := s.Metrics()
	if got := m.Counter("stream_ops"); got != 9 {
		t.Errorf("stream_ops = %d, want 9", got)
	}
	if got := m.Counter("stream_batches"); got != 3 {
		t.Errorf("stream_batches = %d, want 3", got)
	}

	// Unknown op and unknown graph are 400/404.
	resp, err = http.Post(ts.URL+"/v1/stream?graph=g", "application/x-ndjson",
		strings.NewReader(`{"op":"upsert","src":0,"dst":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stream?graph=nope", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown graph: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestStreamBackpressure holds one stream open (a pipe that never closes
// until released) and asserts the next stream is bounced with 429 +
// Retry-After — the in-flight bound, not queueing, absorbs overload.
func TestStreamBackpressure(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.StreamInflight = 1 })

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/stream?graph=g", "application/x-ndjson", pr)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// The first op proves the stream holds its semaphore slot while parked
	// on the next read.
	if _, err := io.WriteString(pw, `{"src":0,"dst":1,"weight":1}`+"\n"); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, s.Metrics(), "stream_ops", 1)

	resp, err := http.Post(ts.URL+"/v1/stream?graph=g", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := s.Metrics().Counter("stream_rejected"); got != 1 {
		t.Errorf("stream_rejected = %d, want 1", got)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("held stream: %v", err)
	}
	// The slot is free again.
	resp, err = http.Post(ts.URL+"/v1/stream?graph=g", "application/x-ndjson",
		strings.NewReader(`{"src":1,"dst":2,"weight":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release stream: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestWindowExpiry drives the sliding window with an explicit clock:
// timestamped inserts age out once older than the window, base edges are
// permanent, and expiry flows through the same epoch/deletion machinery
// queries warm-start from.
func TestWindowExpiry(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Graphs[0].Window = time.Minute
		c.WindowTick = time.Hour // keep the background ticker out of the test
	})
	rg := s.graphs["g"]
	g0, _ := rg.snapshot()
	base := g0.NumEdges()
	t0 := time.Unix(1_000_000, 0)

	ins := []graph.Edge{{Src: 0, Dst: 50, Weight: 1}, {Src: 1, Dst: 51, Weight: 1}}
	if _, err := rg.applyBatch(ins, nil, t0); err != nil {
		t.Fatal(err)
	}
	later := []graph.Edge{{Src: 2, Dst: 52, Weight: 1}}
	if _, err := rg.applyBatch(later, nil, t0.Add(45*time.Second)); err != nil {
		t.Fatal(err)
	}

	// 30s in: nothing is old enough.
	s.sweepWindows(t0.Add(30 * time.Second))
	if got := s.Metrics().Counter("stream_expired_edges"); got != 0 {
		t.Fatalf("early sweep expired %d edges", got)
	}

	// 90s in: the first batch (age 90s) ages out, the second (45s) stays.
	s.sweepWindows(t0.Add(90 * time.Second))
	if got := s.Metrics().Counter("stream_expired_edges"); got != 2 {
		t.Fatalf("stream_expired_edges = %d, want 2", got)
	}
	g, epoch := rg.snapshot()
	if g.NumEdges() != base+1 || epoch != 3 {
		t.Fatalf("after expiry: edges=%d epoch=%d, want %d/3", g.NumEdges(), epoch, base+1)
	}

	// Far future: the last insert goes too; base edges are permanent.
	s.sweepWindows(t0.Add(24 * time.Hour))
	g, _ = rg.snapshot()
	if g.NumEdges() != base {
		t.Fatalf("base edges not permanent: %d edges, want %d", g.NumEdges(), base)
	}
	if got := s.Metrics().Counter("stream_window_sweeps"); got != 3 {
		t.Errorf("stream_window_sweeps = %d, want 3", got)
	}

	// The inventory reports the window.
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].WindowSecs != 60 {
		t.Fatalf("inventory window: %+v, want window_secs=60", infos)
	}
}

// TestQueryModeIsStreamRestart drives insert / delete / expire epochs
// through /v1/mutate and the window sweep, querying across gaps of one,
// two and (past the history) three epochs, and checks the HTTP mode is
// exactly what stream.Restart decides for the same change on a mirror
// stream.Graph — the serving path and the harness path are one function.
func TestQueryModeIsStreamRestart(t *testing.T) {
	const histMax = 2
	s, ts := newTestServer(t, func(c *Config) {
		c.Graphs[0].Graph = sparseGraph(t)
		c.Graphs[0].Window = time.Minute
		c.WindowTick = time.Hour // keep the background ticker out of the test
		c.MutationHistory = histMax
	})
	mirror := stream.NewGraph(sparseGraph(t), histMax)
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(10) }
	root := uint32(10)

	mutate := func(ins, dels []graph.Edge) {
		t.Helper()
		code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{Graph: "g", Edges: ins, Deletes: dels})
		if code != http.StatusOK {
			t.Fatalf("mutate: HTTP %d: %s", code, body)
		}
		if _, _, _, err := mirror.Apply(ins, dels, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// query checks one /v1/query against the mirror: the mode Restart picks
	// for the gap since the previous query, and the cold oracle's values.
	prevEpoch, prevState := uint64(0), []float64(nil)
	seen := map[stream.Mode]bool{}
	query := func(label string) {
		t.Helper()
		want := stream.Cold
		if base, added, removed, ok := mirror.Since(prevEpoch); ok && prevState != nil {
			_, want = stream.Restart(mk(), base, mirror.CSR(), added, removed, prevState, s.cfg.MaxConeFraction)
		}
		resp := doQuery(t, ts.URL, QueryRequest{Graph: "g", Algorithm: "sssp", Root: &root})
		if resp.Epoch != mirror.Epoch() {
			t.Fatalf("%s: served epoch %d, mirror epoch %d", label, resp.Epoch, mirror.Epoch())
		}
		if resp.Mode != string(want) {
			t.Errorf("%s: HTTP mode %q, stream.Restart says %q", label, resp.Mode, want)
		}
		seen[want] = true
		prevEpoch, prevState = mirror.Epoch(), algorithms.Solve(mirror.CSR(), mk()).Values
		sum := 0.0
		for _, v := range prevState {
			if !math.IsInf(v, 0) {
				sum += v
			}
		}
		if resp.Sum != sum {
			t.Errorf("%s: sum %g, cold oracle %g", label, resp.Sum, sum)
		}
	}

	query("base")
	mutate([]graph.Edge{{Src: 12, Dst: 13, Weight: 1}}, nil)
	query("gap 1, insert-only")
	mutate([]graph.Edge{{Src: 13, Dst: 14, Weight: 1}}, nil)
	mutate(nil, []graph.Edge{{Src: 12, Dst: 13}})
	query("gap 2, insert then delete")
	mutate([]graph.Edge{{Src: 10, Dst: 20, Weight: 1}}, nil)
	mutate([]graph.Edge{{Src: 20, Dst: 21, Weight: 1}}, nil)
	mutate([]graph.Edge{{Src: 21, Dst: 22, Weight: 1}}, nil)
	query("gap 3, past the history")
	far := time.Now().Add(time.Hour)
	s.sweepWindows(far)
	if ch := mirror.Expire(far, time.Minute); len(ch.Removed) != 4 {
		t.Fatalf("mirror expiry removed %d edges, want the 4 live inserts", len(ch.Removed))
	}
	query("gap 1, window expiry")

	for _, m := range []stream.Mode{stream.Warm, stream.Cone, stream.Cold} {
		if !seen[m] {
			t.Errorf("script never exercised mode %q", m)
		}
	}
}
