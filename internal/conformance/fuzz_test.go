package conformance

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/stream"
)

// The fuzz targets decode arbitrary byte strings into small (graph,
// algorithm) instances and re-run the differential harness on them, letting
// the native fuzzer search for engine divergence instead of relying on the
// fixed conformance matrix. Seed corpora live under testdata/fuzz/ and are
// exercised by every plain `go test` run.
//
// Byte layout (shared by the targets):
//
//	data[0]  vertex count selector (n = 2 + data[0]%62)
//	data[1]  algorithm selector (index into Algorithms())
//	data[2]  root selector (root = data[2]%n)
//	data[3]  bit 0: weighted
//	data[4:] edge triples (src%n, dst%n, weight byte), capped at 4n edges
func fuzzGraph(data []byte) (*graph.CSR, AlgCase, graph.VertexID, bool) {
	if len(data) < 4 {
		return nil, AlgCase{}, 0, false
	}
	n := 2 + int(data[0]%62)
	algs := Algorithms()
	c := algs[int(data[1])%len(algs)]
	root := graph.VertexID(int(data[2]) % n)
	weighted := data[3]&1 == 1
	payload := data[4:]
	var edges []graph.Edge
	for i := 0; i+2 < len(payload) && len(edges) < 4*n; i += 3 {
		edges = append(edges, graph.Edge{
			Src:    graph.VertexID(int(payload[i]) % n),
			Dst:    graph.VertexID(int(payload[i+1]) % n),
			Weight: float32(int(payload[i+2])%100+1) / 100,
		})
	}
	if len(edges) == 0 {
		// A weighted graph with no edges does not round-trip its weighted
		// flag through the text format; normalize so every decoded instance
		// is a fixed point of encode∘decode.
		weighted = false
	}
	g, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		return nil, AlgCase{}, 0, false
	}
	return g, c, root, true
}

// FuzzEngineAgreement decodes a (graph, algorithm, root) instance and runs
// the full differential harness: all engines vs the reference oracle, event
// conservation, and the algebraic laws.
func FuzzEngineAgreement(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, c, root, ok := fuzzGraph(data)
		if !ok {
			t.Skip()
		}
		prepared := c.Prepared(g)
		if err := Verify(prepared, c.Maker(root), Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzGraphIORoundTrip checks that the two graph codecs, the text edge
// list and the graphpack container, are lossless: write∘read must
// reproduce the graph bit-for-bit (weights included), for any decodable
// instance — including multigraphs, self loops, and trailing isolated
// vertices. It also drives the raw input bytes straight into both
// decoders: whatever they decode to (usually an error) must pass
// CSR.Validate, and malformed input must never panic or demand an
// allocation sized by an unvalidated header. The seed corpus includes torn
// and truncated graphpack containers — cut inside the header, the slice
// directory, and a compressed segment — plus a flipped-byte directory, the
// shapes a crashed or half-shipped conversion leaves behind.
func FuzzGraphIORoundTrip(f *testing.F) {
	if seedG, err := graph.FromEdges(9, []graph.Edge{
		{Src: 0, Dst: 3, Weight: 1}, {Src: 3, Dst: 7, Weight: 0.5},
		{Src: 7, Dst: 0, Weight: 2}, {Src: 1, Dst: 8, Weight: 0.25},
		{Src: 8, Dst: 2, Weight: 4},
	}, true); err == nil {
		var pack bytes.Buffer
		if err := ooc.Write(&pack, seedG, ooc.WriteOptions{Slices: 3}); err == nil {
			full := pack.Bytes()
			f.Add(append([]byte(nil), full...))               // intact container
			f.Add(append([]byte(nil), full[:20]...))          // torn mid-header
			f.Add(append([]byte(nil), full[:len(full)/2]...)) // torn in the directory
			f.Add(append([]byte(nil), full[:len(full)-3]...)) // torn mid-segment
			flipped := append([]byte(nil), full...)
			flipped[48] ^= 0xff // corrupt a directory entry
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := graph.ReadEdgeList(bytes.NewReader(data), 0); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("ReadEdgeList accepted an invalid graph: %v", err)
			}
		}
		// The same bytes as a file, through the graphpack decoder: the torn
		// and corrupt seeds must be rejected, never decoded to a CSR that
		// breaks its invariants.
		path := filepath.Join(t.TempDir(), "g")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, err := ooc.ReadCSR(path); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("ooc.ReadCSR accepted an invalid graph: %v", err)
			}
		}
		g, _, _, ok := fuzzGraph(data)
		if !ok {
			t.Skip()
		}
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			t.Fatal(err)
		}
		fromText, err := graph.ReadEdgeList(&text, g.NumVertices())
		if err != nil {
			t.Fatalf("text round-trip: %v", err)
		}
		if !g.Equal(fromText) {
			t.Fatalf("text round-trip altered the graph (n=%d m=%d weighted=%v)",
				g.NumVertices(), g.NumEdges(), g.Weighted())
		}
		// graphpack round-trip at a data-selected compression level and
		// slicing.
		level := int(data[3]>>1) % 3
		var pack bytes.Buffer
		if err := ooc.Write(&pack, g, ooc.WriteOptions{
			Level: level, RawLevel: level == ooc.LevelRaw, Slices: 1 + int(data[0])%4,
		}); err != nil {
			t.Fatalf("ooc.Write: %v", err)
		}
		if err := os.WriteFile(path, pack.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		fromPack, err := ooc.ReadCSR(path)
		if err != nil {
			t.Fatalf("graphpack round-trip (level %d): %v", level, err)
		}
		if !g.Equal(fromPack) {
			t.Fatalf("graphpack round-trip (level %d) altered the graph (n=%d m=%d weighted=%v)",
				level, g.NumVertices(), g.NumEdges(), g.Weighted())
		}
	})
}

// FuzzMutateSequence decodes a small base graph plus a stream of mutation
// ops, replays them through stream.Replayer (the serving tier's warm-path
// selection), and requires the warm state to match a cold solve after
// EVERY epoch — and the whole sequence never to panic.
//
// Byte layout:
//
//	data[0]  vertex count selector (n = 2 + data[0]%14)
//	data[1]  algorithm selector (non-incremental algorithms are skipped)
//	data[2]  root selector (root = data[2]%n)
//	data[3]  bit 0: weighted
//	data[4]  base edge count selector (k = data[4]%16 triples)
//	data[5:5+3k] base edge triples (src%n, dst%n, weight byte)
//	rest     op quads (kind, a, b, c), capped at 12 ops:
//	           kind%4 ∈ {0,1} → insert edge (a%n, b%n, weight (c%100+1)/100)
//	           kind%4 ∈ {2,3} → delete pair (a%n, b%n)
//
// Each op is applied as its own epoch.
func FuzzMutateSequence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		n := 2 + int(data[0]%14)
		algs := Algorithms()
		c := algs[int(data[1])%len(algs)]
		if !c.Incremental {
			// Adsorption's convergence contract assumes inbound-normalized
			// weights, which arbitrary mutations do not preserve.
			t.Skip()
		}
		root := graph.VertexID(int(data[2]) % n)
		weighted := data[3]&1 == 1
		k := int(data[4] % 16)
		payload := data[5:]
		var edges []graph.Edge
		for i := 0; i+2 < len(payload) && len(edges) < k; i += 3 {
			edges = append(edges, graph.Edge{
				Src:    graph.VertexID(int(payload[i]) % n),
				Dst:    graph.VertexID(int(payload[i+1]) % n),
				Weight: float32(int(payload[i+2])%100+1) / 100,
			})
		}
		if len(edges) == 0 {
			weighted = false
		}
		ops := payload[3*len(edges):]
		base, err := graph.FromEdges(n, edges, weighted)
		if err != nil {
			t.Skip()
		}

		mk := c.Maker(root)
		tol := 2 * Tolerance(mk(), base)
		solve := func(g *graph.CSR, alg algorithms.Algorithm) ([]float64, error) {
			return algorithms.Solve(g, alg).Values, nil
		}
		r := stream.NewReplayer(base, mk, solve, stream.DefaultMaxConeFraction)
		for i := 0; i+3 < len(ops) && i/4 < 12; i += 4 {
			kind, a, b, w := ops[i], ops[i+1], ops[i+2], ops[i+3]
			switch kind % 4 {
			case 0, 1:
				err = r.Apply([]graph.Edge{{
					Src:    graph.VertexID(int(a) % n),
					Dst:    graph.VertexID(int(b) % n),
					Weight: float32(int(w)%100+1) / 100,
				}}, nil)
			case 2, 3:
				err = r.Apply(nil, []graph.Edge{{
					Src: graph.VertexID(int(a) % n),
					Dst: graph.VertexID(int(b) % n),
				}})
			}
			if err != nil {
				t.Fatalf("op %d (kind %d): %v", i/4, kind%4, err)
			}
			got, err := r.State()
			if err != nil {
				t.Fatal(err)
			}
			want := algorithms.Solve(r.Graph(), mk()).Values
			if err := CompareValues(
				fmt.Sprintf("mutate-sequence %s op %d (mode %s)", c.Name, i/4, r.LastMode),
				got, want, tol); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzIncrementalInsert splits the decoded edge set into a base graph and a
// batch of insertions, converges on the base, applies the batch through the
// incremental path, and requires the warm continuation to land on the cold-
// start fixed point (on the worklist solver and the accelerator).
func FuzzIncrementalInsert(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, c, _, ok := fuzzGraph(data)
		if !ok || !c.Incremental {
			t.Skip()
		}
		edges := g.Edges()
		if len(edges) < 2 {
			t.Skip()
		}
		split := len(edges) / 2
		base, err := graph.FromEdges(g.NumVertices(), edges[:split], g.Weighted())
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyIncremental(base, c, edges[split:]); err != nil {
			t.Fatal(err)
		}
	})
}
