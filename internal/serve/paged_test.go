package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// TestRestartLeavesPriorValuesIntact: warm and cone restarts start from
// the prior epoch's cached fixed point without copying it up front, so
// they must never write it. After a warm query (insert) and a cone query
// (delete) per algorithm, every cached prior result is bit-identical to
// what it was before the restart read it.
func TestRestartLeavesPriorValuesIntact(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Graphs[0].Graph = ladderGraph(t) })
	for i, req := range []QueryRequest{
		{Graph: "g", Algorithm: "sssp", Root: ptr(uint32(3))},
		{Graph: "g", Algorithm: "pr"},
	} {
		_, key, err := makeAlgorithm(&req)
		if err != nil {
			t.Fatal(err)
		}
		series := seriesKey("g", key)
		hub := graph.VertexID(120 + 40*i)
		for _, step := range []struct {
			mode      string
			ins, dels []EdgeJSON
		}{
			{"warm", []EdgeJSON{{Src: 5, Dst: hub, Weight: 0.5}}, nil},
			{"cone", nil, []EdgeJSON{{Src: hub, Dst: hub + 1}}},
		} {
			prior := doQuery(t, ts.URL, req)
			res, ok := s.cache.get(series, prior.Epoch)
			if !ok {
				t.Fatalf("%s: epoch %d is not cached", key, prior.Epoch)
			}
			before := bits(res.Values)
			if code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{Graph: "g", Edges: step.ins, Deletes: step.dels}); code != http.StatusOK {
				t.Fatalf("mutate: HTTP %d: %s", code, body)
			}
			if got := doQuery(t, ts.URL, req); got.Mode != step.mode {
				t.Fatalf("%s: mode %q, want %q", key, got.Mode, step.mode)
			}
			if !bytes.Equal(bits(res.Values), before) {
				t.Errorf("%s: the %s restart wrote the epoch-%d fixed point it started from", key, step.mode, prior.Epoch)
			}
		}
	}
}

func bits(values []float64) []byte {
	out := make([]byte, 0, 8*len(values))
	for _, v := range values {
		out = fmt.Appendf(out, "%016x", math.Float64bits(v))
	}
	return out
}

// TestPagedAndImportedEpochsAgree: a server that reached an epoch by live
// mutations holds it as pages; one that imported that epoch's snapshot
// holds a CSR rebuilt from the edge list. Their StateDigest and their
// exported snapshot bytes must be equal, weighted or not, or anti-entropy
// would see a divergence where there is none.
func TestPagedAndImportedEpochsAgree(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		t.Run(fmt.Sprintf("weighted=%v", weighted), func(t *testing.T) {
			base, err := gen.ErdosRenyi(3*graph.PageVertices+40, 3000, weighted, 5)
			if err != nil {
				t.Fatal(err)
			}
			spec := func(c *Config) { c.Graphs[0].Graph = base }
			live, liveURL := newTestServer(t, spec)
			imported, _ := newTestServer(t, spec)
			n := base.NumVertices()
			for i := range 6 {
				v := graph.VertexID(i * 137 % n)
				u, w := graph.VertexID((i*137+300)%n), graph.VertexID((i*137+1)%n)
				req := MutateRequest{Graph: "g", Edges: []EdgeJSON{
					{Src: v, Dst: v / 2, Weight: 0.25}, {Src: u, Dst: v, Weight: 2},
				}}
				if nb := base.Neighbors(w); len(nb) > 0 {
					req.Deletes = []EdgeJSON{{Src: w, Dst: nb[0]}}
				}
				if code, body, _ := postJSON(t, liveURL.URL+"/v1/mutate", req); code != http.StatusOK {
					t.Fatalf("mutate: HTTP %d: %s", code, body)
				}
			}
			doQuery(t, liveURL.URL, QueryRequest{Graph: "g", Algorithm: "cc"})
			snap, err := live.ExportSnapshot("g")
			if err != nil {
				t.Fatal(err)
			}
			if err := imported.ImportSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			lg, _ := live.graphs["g"].snapshot()
			ig, _ := imported.graphs["g"].snapshot()
			if _, ok := lg.(*graph.Paged); !ok {
				t.Fatalf("live epoch is a %T, want *graph.Paged", lg)
			}
			if _, ok := ig.(*graph.CSR); !ok {
				t.Fatalf("imported epoch is a %T, want *graph.CSR", ig)
			}
			ld, err := live.StateDigest("g")
			if err != nil {
				t.Fatal(err)
			}
			id, err := imported.StateDigest("g")
			if err != nil {
				t.Fatal(err)
			}
			if ld != id || ld.Epoch != 6 {
				t.Errorf("digest: live %+v, imported %+v", ld, id)
			}
			again, err := imported.ExportSnapshot("g")
			if err != nil {
				t.Fatal(err)
			}
			lb, _ := json.Marshal(snap)
			ib, _ := json.Marshal(again)
			if !bytes.Equal(lb, ib) || len(snap.Series) == 0 {
				t.Errorf("snapshot bytes differ (%d vs %d) or carry no series", len(lb), len(ib))
			}
		})
	}
}
