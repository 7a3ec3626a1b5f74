package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

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

// TestQueryModeIsStreamRestart drives insert / delete epochs through
// /v1/mutate, the last one a multi-edge delete, querying across gaps of one,
// two and (past the history) three epochs, and checks the HTTP mode is
// exactly what stream.Restart decides for the same change on a mirror
// stream.Graph — the serving path and the harness path are one function.
func TestQueryModeIsStreamRestart(t *testing.T) {
	const histMax = 2
	s, ts := newTestServer(t, func(c *Config) {
		c.Graphs[0].Graph = sparseGraph(t)
		c.MutationHistory = histMax
	})
	mirror := stream.NewGraph(sparseGraph(t), histMax)
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(10) }
	root := uint32(10)

	mutate := func(ins, dels []graph.Edge) stream.Change {
		t.Helper()
		code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{Graph: "g", Edges: ins, Deletes: dels})
		if code != http.StatusOK {
			t.Fatalf("mutate: HTTP %d: %s", code, body)
		}
		ch, _, _, err := mirror.Apply(ins, dels)
		if err != nil {
			t.Fatal(err)
		}
		return ch
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
	if ch := mutate(nil, []graph.Edge{{Src: 13, Dst: 14}, {Src: 10, Dst: 20}, {Src: 20, Dst: 21}, {Src: 21, Dst: 22}}); len(ch.Removed) != 4 {
		t.Fatalf("mirror delete removed %d edges, want the 4 live inserts", len(ch.Removed))
	}
	query("gap 1, delete every insert")

	for _, m := range []stream.Mode{stream.Warm, stream.Cone, stream.Cold} {
		if !seen[m] {
			t.Errorf("script never exercised mode %q", m)
		}
	}
}
