package ooc

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

func testGraph(t *testing.T, weighted bool) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 9, EdgeFactor: 8,
		Weighted: weighted, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pack encodes g and opens it with the given budget.
func pack(t testing.TB, g *graph.CSR, opt WriteOptions, budget int64) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g, opt); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s, err := openBytes(t, buf.Bytes(), budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// openBytes opens raw container bytes through a temporary file; a store it
// opens is closed when the test ends.
func openBytes(t testing.TB, raw []byte, budget int64) (*Store, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.graphpack")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, budget)
	if err == nil {
		t.Cleanup(func() { s.Close() })
	}
	return s, err
}

// decodedBytes estimates g's decoded footprint the same way the store
// charges slices.
func decodedBytes(g *graph.CSR) int64 {
	b := int64(len(g.RowPtr))*8 + int64(len(g.Dst))*4
	if g.Weight != nil {
		b += int64(len(g.Weight)) * 4
	}
	return b
}

func TestStoreMatchesCSR(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := testGraph(t, weighted)
		for level := LevelRaw; level <= LevelDelta; level++ {
			s := pack(t, g, WriteOptions{Level: level, RawLevel: true, Slices: 8}, 0)
			if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
				t.Fatalf("level %d: shape %d/%d, want %d/%d",
					level, s.NumVertices(), s.NumEdges(), g.NumVertices(), g.NumEdges())
			}
			if s.Weighted() != g.Weighted() {
				t.Fatalf("level %d: weighted mismatch", level)
			}
			for v := 0; v < g.NumVertices(); v++ {
				id := graph.VertexID(v)
				if s.OutDegree(id) != g.OutDegree(id) {
					t.Fatalf("level %d: OutDegree(%d)", level, v)
				}
				sn, gn := s.Neighbors(id), g.Neighbors(id)
				for j := range gn {
					if sn[j] != gn[j] {
						t.Fatalf("level %d: Neighbors(%d)[%d] = %d, want %d", level, v, j, sn[j], gn[j])
					}
				}
				sw, gw := s.NeighborWeights(id), g.NeighborWeights(id)
				if (sw == nil) != (gw == nil) {
					t.Fatalf("level %d: NeighborWeights(%d) nil mismatch", level, v)
				}
				for j := range gw {
					if sw[j] != gw[j] {
						t.Fatalf("level %d: NeighborWeights(%d)[%d]", level, v, j)
					}
				}
				rd, rw := s.Row(id)
				if !slices.Equal(rd, gn) || !slices.Equal(rw, gw) || (rw == nil) != (gw == nil) {
					t.Fatalf("level %d: Row(%d) = %v, %v, want %v, %v", level, v, rd, rw, gn, gw)
				}
			}
			back, err := ReadCSR(s.f.Name())
			if err != nil {
				t.Fatalf("level %d: ReadCSR: %v", level, err)
			}
			if !back.Equal(g) {
				t.Fatalf("level %d: ReadCSR did not reproduce the graph", level)
			}
		}
	}
}

func TestCompressionShrinks(t *testing.T) {
	g := testGraph(t, false)
	sizes := make([]int, 3)
	for level := LevelRaw; level <= LevelDelta; level++ {
		var buf bytes.Buffer
		if err := Write(&buf, g, WriteOptions{Level: level, RawLevel: true, Slices: 8}); err != nil {
			t.Fatal(err)
		}
		sizes[level] = buf.Len()
	}
	if sizes[LevelVarint] >= sizes[LevelRaw] {
		t.Errorf("varint (%d bytes) did not beat raw (%d bytes)", sizes[LevelVarint], sizes[LevelRaw])
	}
	t.Logf("container bytes raw/varint/delta: %d/%d/%d", sizes[0], sizes[1], sizes[2])
}

func TestBudgetEviction(t *testing.T) {
	g := testGraph(t, false)
	budget := decodedBytes(g) / 4
	s := pack(t, g, WriteOptions{Slices: 16}, budget)
	// Open's verification pass scans every slice, so evictions have already
	// happened under a quarter-size budget.
	c := s.Counters()
	if c.Evictions == 0 {
		t.Fatalf("no evictions at budget %d (decoded %d)", budget, decodedBytes(g))
	}
	if c.ResidentBytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d at rest", c.ResidentBytes, budget)
	}
	if c.ResidentSlices == 0 {
		t.Fatal("nothing resident after open")
	}
	s.ResetCounters()
	// A full sweep re-decodes most slices; counters must move again.
	for v := 0; v < g.NumVertices(); v++ {
		_ = s.OutDegree(graph.VertexID(v))
	}
	c = s.Counters()
	if c.Decodes == 0 || c.Hits == 0 {
		t.Fatalf("sweep counters: %+v", c)
	}
	// Every row read is one residency touch: a hit or a decode, never both
	// and never more than one.
	s.ResetCounters()
	for v := 0; v < g.NumVertices(); v++ {
		s.Row(graph.VertexID(v))
	}
	if c = s.Counters(); c.Hits+c.Decodes != int64(g.NumVertices()) {
		t.Fatalf("%d row reads counted %d hits + %d decodes", g.NumVertices(), c.Hits, c.Decodes)
	}
}

// Eviction follows the ascending cyclic sweep: under a quarter budget the
// slices left resident are ones the sweep has yet to reach, so a second
// sweep decodes fewer slices than the store has. Least-recently-used eviction would decode all
// of them on every sweep, since each slice is the least recently used one
// exactly when the sweep comes back to it.
func TestSweepOrderEviction(t *testing.T) {
	g := testGraph(t, false)
	s := pack(t, g, WriteOptions{Slices: 16}, decodedBytes(g)/4)
	if s.NumSlices() != 16 {
		t.Fatalf("%d slices, want 16", s.NumSlices())
	}
	sweep := func() int64 {
		s.ResetCounters()
		for v := 0; v < g.NumVertices(); v++ {
			s.Row(graph.VertexID(v))
		}
		return s.Counters().Decodes
	}
	first, second := sweep(), sweep()
	t.Logf("decodes: first sweep %d, second sweep %d, of %d slices", first, second, s.NumSlices())
	if second >= int64(s.NumSlices()) {
		t.Fatalf("second sweep decoded %d slices of %d: no slice stayed resident across sweeps", second, s.NumSlices())
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Fatalf("no evictions at a quarter budget: %+v", c)
	}
}

// Concurrent readers under a budget that forces evictions all read correct
// rows: eviction drops only the store's reference, so a row a reader holds
// stays valid, and every read is exactly one hit or one decode.
func TestStoreConcurrentReaders(t *testing.T) {
	g := testGraph(t, true)
	s := pack(t, g, WriteOptions{Slices: 16}, decodedBytes(g)/4)
	s.ResetCounters()
	const readers, sweeps = 4, 3
	n := g.NumVertices()
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			for i := 0; i < sweeps*n; i++ {
				// Each reader starts its sweep at a different slice.
				v := graph.VertexID((i + r*n/readers) % n)
				dst, wt := s.Row(v)
				if !slices.Equal(dst, g.Neighbors(v)) || !slices.Equal(wt, g.NeighborWeights(v)) {
					errs <- fmt.Errorf("reader %d: Row(%d) = %v, %v, want %v, %v",
						r, v, dst, wt, g.Neighbors(v), g.NeighborWeights(v))
					return
				}
			}
			errs <- nil
		}(r)
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	c := s.Counters()
	if c.Hits+c.Decodes != readers*sweeps*int64(n) {
		t.Errorf("%d row reads counted %d hits + %d decodes", readers*sweeps*n, c.Hits, c.Decodes)
	}
	if c.Evictions == 0 {
		t.Errorf("no evictions at a quarter budget: %+v", c)
	}
}

// rowPath is a store without its Slice method: the worklist still sweeps
// its slices, and the solver reads every row through Row.
type rowPath struct {
	graph.Adjacency
	bounds []graph.VertexID
}

func (r rowPath) SliceBoundaries() []graph.VertexID { return r.bounds }

// The solver's slice view changes how rows are looked up, nothing else: a
// solve on a store equals a solve on the same store through Row, value
// bits, activations, emitted deltas, decodes and evictions alike, at an
// unlimited and a quarter budget. Only the lookups (hits) fall.
func TestSliceViewMatchesRowPath(t *testing.T) {
	g := testGraph(t, true).NormalizeInbound() // adsorption converges only on inbound-normalized weights
	root := graph.BestRoot(g)
	for _, budget := range []int64{0, decodedBytes(g) / 4} {
		view := pack(t, g, WriteOptions{Slices: 16}, budget)
		rows := pack(t, g, WriteOptions{Slices: 16}, budget)
		for _, name := range algorithms.Names() {
			alg, err := algorithms.ByName(name, root)
			if err != nil {
				t.Fatal(err)
			}
			view.ResetCounters()
			rows.ResetCounters()
			got := algorithms.Solve(view, alg)
			want := algorithms.Solve(rowPath{rows, rows.SliceBoundaries()}, alg)
			gc, wc := view.Counters(), rows.Counters()
			t.Logf("budget %d %s: %d activations, %d decodes, lookups %d (Row path %d)",
				budget, name, got.Activations, gc.Decodes, gc.Hits+gc.Decodes, wc.Hits+wc.Decodes)
			if !slices.EqualFunc(got.Values, want.Values, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("budget %d %s: values differ from the Row path", budget, name)
			}
			if got.Activations != want.Activations || got.Emitted != want.Emitted ||
				gc.Decodes != wc.Decodes || gc.Evictions != wc.Evictions {
				t.Errorf("budget %d %s: activations/emitted/decodes/evictions %d/%d/%d/%d, Row path %d/%d/%d/%d",
					budget, name, got.Activations, got.Emitted, gc.Decodes, gc.Evictions,
					want.Activations, want.Emitted, wc.Decodes, wc.Evictions)
			}
			if gc.Hits > wc.Hits {
				t.Errorf("budget %d %s: %d hits, more than the Row path's %d", budget, name, gc.Hits, wc.Hits)
			}
		}
	}
}

// Readers hold a slice view across a whole slice's rows while the other
// readers and a solve make a quarter-budget store evict: every view stays
// correct, since eviction drops the store's reference, not the reader's.
func TestSliceViewConcurrentReaders(t *testing.T) {
	g := testGraph(t, true)
	s := pack(t, g, WriteOptions{Slices: 16}, decodedBytes(g)/4)
	s.ResetCounters()
	bounds := s.SliceBoundaries()
	k := len(bounds) - 1
	root := graph.BestRoot(g)
	want := algorithms.Solve(g, algorithms.NewSSSP(root))
	const readers, sweeps = 4, 3
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		go func(r int) {
			for i := 0; i < sweeps*k; i++ {
				j := (i + r*k/readers) % k
				lo, rows := s.Slice(bounds[j])
				if lo != bounds[j] || rows.NumVertices() != int(bounds[j+1]-lo) {
					errs <- fmt.Errorf("reader %d: Slice(%d) = [%d,+%d), want [%d,%d)", r, bounds[j], lo, rows.NumVertices(), bounds[j], bounds[j+1])
					return
				}
				for v := lo; v < bounds[j+1]; v++ {
					dst, wt := rows.Row(v - lo)
					if !slices.Equal(dst, g.Neighbors(v)) || !slices.Equal(wt, g.NeighborWeights(v)) {
						errs <- fmt.Errorf("reader %d: row %d = %v, %v, want %v, %v", r, v, dst, wt, g.Neighbors(v), g.NeighborWeights(v))
						return
					}
				}
			}
			errs <- nil
		}(r)
	}
	go func() {
		got := algorithms.Solve(s, algorithms.NewSSSP(root))
		if !slices.Equal(got.Values, want.Values) {
			errs <- fmt.Errorf("sssp on the evicting store differs from the in-RAM solve")
			return
		}
		errs <- nil
	}()
	for r := 0; r <= readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Errorf("no evictions at a quarter budget: %+v", c)
	}
}

// benchGraph is a larger RMAT instance for the per-layer benchmarks.
func benchGraph(b *testing.B) *graph.CSR {
	b.Helper()
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 14, EdgeFactor: 8, Weighted: true, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkStoreRow reads every row of a fully resident store beside the
// same rows of the in-RAM CSR: the cost of the store's Row path (slice
// search, residency touch) over a plain CSR row, in ns/edge.
func BenchmarkStoreRow(b *testing.B) {
	g := benchGraph(b)
	s := pack(b, g, WriteOptions{}, 0)
	n, m := g.NumVertices(), float64(g.NumEdges())
	for _, c := range []struct {
		name string
		adj  graph.Adjacency
	}{{"csr", g}, {"store", s}} {
		b.Run(c.name, func(b *testing.B) {
			var sink float32
			for i := 0; i < b.N; i++ {
				for v := 0; v < n; v++ {
					_, wt := c.adj.Row(graph.VertexID(v))
					for _, w := range wt {
						sink += w
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*m), "ns/edge")
			_ = sink
		})
	}
}

// BenchmarkDecodeSegment decodes every segment of a container at each
// compression level; MB/s counts decoded bytes, as ooc.decode_mb_per_s does,
// and ns/edge is elapsed time per decoded edge.
func BenchmarkDecodeSegment(b *testing.B) {
	g := benchGraph(b)
	for level := LevelRaw; level <= LevelDelta; level++ {
		b.Run(fmt.Sprintf("l%d", level), func(b *testing.B) {
			s := pack(b, g, WriteOptions{Level: level, RawLevel: level == LevelRaw}, 0)
			var decoded int64
			for i := range s.dir {
				decoded += s.slices[i].data.Load().bytes
			}
			b.SetBytes(decoded)
			b.ResetTimer()
			for r := 0; r < b.N; r++ {
				for i, e := range s.dir {
					raw, err := s.segment(i)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := decodeSegment(raw, graph.VertexID(e.lo), graph.VertexID(e.hi), int(s.hdr.n),
						level, s.hdr.weighted(), edgeCount(s.dir, i, s.hdr.m)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(g.NumEdges())), "ns/edge")
		})
	}
}

// algCase returns the named conformance algorithm case.
func algCase(t *testing.T, name string) conformance.AlgCase {
	t.Helper()
	c, err := conformance.AlgCaseByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A store slices the worklist, so its schedule differs from the in-RAM
// one: monotone results are schedule-independent and must match exactly,
// sum-based ones within the repository tolerance (conformance/tolerance.go).
func TestSolveOnStoreMatches(t *testing.T) {
	g := testGraph(t, true)
	s := pack(t, g, WriteOptions{Slices: 16}, decodedBytes(g)/4)
	root := graph.BestRoot(g)
	for _, name := range []string{"pagerank-delta", "sssp", "connected-components"} {
		mk := algCase(t, name).New
		want := algorithms.Solve(g, mk(root))
		got := algorithms.Solve(s, mk(root))
		if err := conformance.CompareValues("store vs in-RAM "+name, got.Values, want.Values, conformance.Tolerance(mk(root), g)); err != nil {
			t.Error(err)
		}
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Fatalf("solve at quarter budget produced no evictions: %+v", c)
	}
}

// The solver sweeps a budgeted store slice by slice: decodes stay near
// slices × sweeps instead of one per activation (a return to FIFO thrash
// fails the first bound), and the slice order does not inflate the work (a
// drain-the-slice-to-quiescence schedule fails the second).
func TestSolveSweepsStoreBySlice(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 12, EdgeFactor: 8, Weighted: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := pack(t, g, WriteOptions{Slices: 16}, decodedBytes(g)/4)
	root := graph.BestRoot(g)
	for _, name := range []string{"pagerank-delta", "sssp", "bfs", "connected-components"} {
		mk := algCase(t, name).New
		inRAM := algorithms.Solve(g, mk(root))
		s.ResetCounters()
		got := algorithms.Solve(s, mk(root))
		c := s.Counters()
		t.Logf("%s: %d activations, %d decodes, emitted %d (in-RAM %d)", name, got.Activations, c.Decodes, got.Emitted, inRAM.Emitted)
		if c.Decodes > got.Activations/20 {
			t.Errorf("%s: %d slice decodes for %d activations, want at most 1 per 20", name, c.Decodes, got.Activations)
		}
		if float64(got.Emitted) > 1.25*float64(inRAM.Emitted) {
			t.Errorf("%s: store solve propagated %d edges, in-RAM %d: more than 1.25x", name, got.Emitted, inRAM.Emitted)
		}
	}
}

func TestOpenFile(t *testing.T) {
	g := testGraph(t, true)
	path := filepath.Join(t.TempDir(), "g.graphpack")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, g, WriteOptions{Slices: 8}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch")
	}
	for v := 0; v < g.NumVertices(); v += 13 {
		id := graph.VertexID(v)
		sn, gn := s.Neighbors(id), g.Neighbors(id)
		if len(sn) != len(gn) {
			t.Fatalf("Neighbors(%d) length", v)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionRejected(t *testing.T) {
	g := testGraph(t, false)
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteOptions{Slices: 4}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncations at every structural boundary must error, never panic.
	for _, cut := range []int{0, 4, headerSize - 1, headerSize, headerSize + dirEntrySize - 1,
		headerSize + 4*dirEntrySize, len(raw) - 1} {
		if _, err := openBytes(t, raw[:cut], 0); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Flipping directory bytes must error (torn directory).
	for _, off := range []int{8, 16, 32, headerSize, headerSize + 8, headerSize + 24, headerSize + 32} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xff
		if _, err := openBytes(t, mut, 0); err == nil {
			t.Errorf("corruption at offset %d accepted", off)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &graph.CSR{}, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err := openBytes(t, buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 0 || s.NumEdges() != 0 || len(s.SliceBoundaries()) != 1 {
		t.Fatalf("empty store shape: %d/%d", s.NumVertices(), s.NumEdges())
	}
	if g, err := ReadCSR(s.f.Name()); err != nil || g.NumVertices() != 0 || g.Validate() != nil {
		t.Fatalf("ReadCSR of an empty container: %v, %v", g, err)
	}
}
