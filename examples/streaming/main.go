// Streaming: keep shortest paths fresh over a mutating graph — served
// online. An in-process analytics server holds the road network resident;
// clients query converged SSSP distances over HTTP while batches of new
// road segments stream in through /v1/mutate. Each batch bumps the graph
// epoch, and the next query warm-starts from the previous fixed point —
// seeding only the correction events the new edges introduce — instead of
// recomputing from scratch (the paper's delta-accumulative model run as a
// service; see OPERATIONS.md "Serving one process").
//
//	go run ./examples/streaming
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"time"

	"graphpulse"
)

func main() {
	g, err := graphpulse.GenerateRMAT(graphpulse.RMATParams{
		A: 0.45, B: 0.22, C: 0.22, D: 0.11,
		Scale: 13, EdgeFactor: 6, Weighted: true, Seed: 99, NoiseAmount: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	root := graphpulse.VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graphpulse.VertexID(v)) > g.OutDegree(root) {
			root = graphpulse.VertexID(v)
		}
	}
	fmt.Printf("network: %d nodes, %d links; source hub: %d\n",
		g.NumVertices(), g.NumEdges(), root)

	// Serve the network from a resident in-process server.
	srv, err := graphpulse.NewServer(graphpulse.ServeConfig{
		Graphs: []graphpulse.ServeGraphSpec{{Name: "roads", Graph: g}},
	})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + addr.String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatal(err)
		}
		fmt.Println("server drained cleanly")
	}()

	// Probe a fixed sample of destinations on every query.
	rng := rand.New(rand.NewSource(7))
	probes := make([]uint32, 64)
	for i := range probes {
		probes[i] = uint32(rng.Intn(g.NumVertices()))
	}

	cold := query(base, root, probes)
	fmt.Printf("cold start: epoch %d, mode %q, %d activations\n\n",
		cold.Epoch, cold.Mode, cold.Activations)

	edges := g.Edges()
	for batch := 1; batch <= 3; batch++ {
		var added []graphpulse.ServeEdge
		for i := 0; i < 50; i++ {
			added = append(added, graphpulse.ServeEdge{
				Src:    uint32(rng.Intn(g.NumVertices())),
				Dst:    uint32(rng.Intn(g.NumVertices())),
				Weight: float32(rng.Float64()*0.5 + 0.01),
			})
		}
		mut := mutate(base, added)

		res := query(base, root, probes)
		if res.Epoch != mut.Epoch {
			log.Fatalf("query answered epoch %d, want %d", res.Epoch, mut.Epoch)
		}

		// Verify the served answer against a from-scratch solve on a
		// locally maintained copy of the mutated graph.
		edges = append(edges, added...)
		local, err := graphpulse.NewGraph(g.NumVertices(), edges, true)
		if err != nil {
			log.Fatal(err)
		}
		oracle := graphpulse.Solve(local, graphpulse.NewSSSP(root))
		worst := 0.0
		for _, vv := range res.Values {
			if d := diff(vv.Value, oracle.Values[vv.Vertex]); d > worst {
				worst = d
			}
		}
		fmt.Printf("batch %d: +%d links → epoch %d; served mode %q, %d activations; max divergence vs fresh solve %.1e\n",
			batch, mut.Added, mut.Epoch, res.Mode, res.Activations, worst)
		if worst > 0 {
			log.Fatalf("served warm-start diverged from fresh solve by %g", worst)
		}
	}
}

// query posts a /v1/query for SSSP distances at the probe vertices.
func query(base string, root graphpulse.VertexID, probes []uint32) *graphpulse.QueryResponse {
	r := uint32(root)
	var resp graphpulse.QueryResponse
	post(base+"/v1/query", graphpulse.QueryRequest{
		Graph: "roads", Algorithm: "sssp", Root: &r, Vertices: probes, Top: 5,
	}, &resp)
	return &resp
}

// mutate posts one /v1/mutate batch.
func mutate(base string, added []graphpulse.ServeEdge) *graphpulse.MutateResponse {
	var resp graphpulse.MutateResponse
	post(base+"/v1/mutate", graphpulse.MutateRequest{Graph: "roads", Edges: added}, &resp)
	return &resp
}

func post(url string, body, out any) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func diff(a, b float64) float64 {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return 0
	}
	return math.Abs(a - b)
}
