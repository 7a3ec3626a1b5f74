package serve

import (
	"net/http"
	"testing"

	"graphpulse/internal/graph"
)

// TestStateDigestPinned pins StateDigest's output for one weighted graph
// after an insert and a delete and for one unweighted multigraph: replicas
// running different versions must agree on (epoch, digest), so the hashed
// stream may not change. ExportSnapshot must list the same edges, in CSR
// order, as graph.CSR.Edges.
func TestStateDigestPinned(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		unweighted, err := graph.FromEdges(6, []graph.Edge{
			{Src: 0, Dst: 1, Weight: 3}, {Src: 0, Dst: 2}, {Src: 4, Dst: 5}, {Src: 5, Dst: 0}, {Src: 0, Dst: 1},
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		c.Graphs = append(c.Graphs, GraphSpec{Name: "u", Graph: unweighted})
	})
	g, _ := s.graphs["g"].snapshot()
	code, body, _ := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Graph:   "g",
		Edges:   []EdgeJSON{{Src: 1, Dst: 190, Weight: 0.5}},
		Deletes: []EdgeJSON{{Src: 3, Dst: g.Neighbors(3)[0]}},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", code, body)
	}
	for _, want := range []DigestInfo{
		{Graph: "g", Epoch: 1, NumVertices: 200, NumEdges: 900, Digest: "f976b726b42680e2"},
		{Graph: "u", Epoch: 0, NumVertices: 6, NumEdges: 5, Digest: "0304352b379a1255"},
	} {
		got, err := s.StateDigest(want.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("digest %+v, want %+v", got, want)
		}
		g, _ := s.graphs[want.Graph].snapshot()
		snap, err := s.ExportSnapshot(want.Graph)
		if err != nil {
			t.Fatal(err)
		}
		edges := g.Edges()
		if len(snap.Edges) != len(edges) {
			t.Fatalf("%s: snapshot has %d edges, graph %d", want.Graph, len(snap.Edges), len(edges))
		}
		for i, e := range edges {
			if !g.Weighted() {
				e.Weight = 0
			}
			if se := snap.Edges[i]; se != (SnapshotEdge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}) {
				t.Fatalf("%s: snapshot edge %d is %+v, graph has %+v", want.Graph, i, se, e)
			}
		}
	}
}
