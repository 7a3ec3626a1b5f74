package ooc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// decodeOracle is the plain binary.Uvarint/Varint decoding loop that
// FuzzDecodeSegment holds decodeSegment to: the same rejections, and on
// acceptance the same arrays. It is decodeSegment's earlier form, with its
// edge-count test made overflow-safe.
func decodeOracle(data []byte, lo, hi graph.VertexID, n int, level int, weighted bool, expectEdges uint64) (*graph.CSR, error) {
	nv := int(hi - lo)
	minEdge := uint64(1)
	if level == LevelRaw {
		minEdge = 4
	}
	if weighted {
		minEdge += 4
	}
	if uint64(len(data)) < uint64(nv)+minEdge*expectEdges {
		return nil, fmt.Errorf("below floor")
	}
	g := &graph.CSR{RowPtr: make([]uint64, nv+1), Dst: make([]graph.VertexID, 0, expectEdges)}
	if weighted {
		g.Weight = make([]float32, 0, expectEdges)
	}
	pos := 0
	for v := lo; v < hi; v++ {
		deg, l := binary.Uvarint(data[pos:])
		if l <= 0 {
			return nil, fmt.Errorf("bad degree at %d", v)
		}
		pos += l
		// deg > expectEdges-len, not len+deg > expectEdges: with one edge
		// decoded, a degree of 2^64-1 wraps the sum, and the raw loop then
		// reads past the segment's end.
		if deg > expectEdges-uint64(len(g.Dst)) {
			return nil, fmt.Errorf("edge count exceeded at %d", v)
		}
		switch level {
		case LevelRaw:
			if pos+4*int(deg) > len(data) {
				return nil, fmt.Errorf("truncated raw at %d", v)
			}
			for j := uint64(0); j < deg; j++ {
				id := binary.LittleEndian.Uint32(data[pos:])
				pos += 4
				if int(id) >= n {
					return nil, fmt.Errorf("id out of range at %d", v)
				}
				g.Dst = append(g.Dst, id)
			}
		case LevelVarint:
			for j := uint64(0); j < deg; j++ {
				id, l := binary.Uvarint(data[pos:])
				if l <= 0 {
					return nil, fmt.Errorf("bad varint at %d", v)
				}
				pos += l
				if id >= uint64(n) {
					return nil, fmt.Errorf("id out of range at %d", v)
				}
				g.Dst = append(g.Dst, graph.VertexID(id))
			}
		case LevelDelta:
			prev := int64(v)
			for j := uint64(0); j < deg; j++ {
				delta, l := binary.Varint(data[pos:])
				if l <= 0 {
					return nil, fmt.Errorf("bad delta at %d", v)
				}
				pos += l
				id := prev + delta
				if id < 0 || id >= int64(n) {
					return nil, fmt.Errorf("id out of range at %d", v)
				}
				prev = id
				g.Dst = append(g.Dst, graph.VertexID(id))
			}
		}
		if weighted {
			if pos+4*int(deg) > len(data) {
				return nil, fmt.Errorf("truncated weights at %d", v)
			}
			for j := uint64(0); j < deg; j++ {
				g.Weight = append(g.Weight, floatFromBits(binary.LittleEndian.Uint32(data[pos:])))
				pos += 4
			}
		}
		g.RowPtr[int(v-lo)+1] = uint64(len(g.Dst))
	}
	if pos != len(data) {
		return nil, fmt.Errorf("trailing bytes")
	}
	if uint64(len(g.Dst)) != expectEdges {
		return nil, fmt.Errorf("edge count mismatch")
	}
	return g, nil
}

// fuzzSegment is one FuzzDecodeSegment input: a segment's bytes and the
// directory fields it is decoded against.
type fuzzSegment struct {
	data   []byte
	lo, nv uint16
	n      uint32
	edges  uint32
}

// seedSegments returns the fuzz seed corpus: every segment of a small
// container at each level, weighted and not, with truncations of each and
// a trailing byte after it, then hand-built segments at the varint
// boundaries.
func seedSegments(t testing.TB) []fuzzSegment {
	var seeds []fuzzSegment
	for _, weighted := range []bool{false, true} {
		g, err := gen.RMAT(gen.RMATParams{
			A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 6, EdgeFactor: 4, Weighted: weighted, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for level := LevelRaw; level <= LevelDelta; level++ {
			s := pack(t, g, WriteOptions{Level: level, RawLevel: true, Slices: 4}, 0)
			for i, e := range s.dir {
				raw, err := s.segment(i)
				if err != nil {
					t.Fatal(err)
				}
				seg := fuzzSegment{raw, uint16(e.lo), uint16(e.hi - e.lo), uint32(s.hdr.n), uint32(edgeCount(s.dir, i, s.hdr.m))}
				seeds = append(seeds, seg)
				for _, cut := range []int{len(raw) - 1, len(raw) / 2} {
					seeds = append(seeds, fuzzSegment{raw[:cut], seg.lo, seg.nv, seg.n, seg.edges})
				}
				seeds = append(seeds, fuzzSegment{append(slices.Clip(raw), 0), seg.lo, seg.nv, seg.n, seg.edges})
			}
		}
	}
	// One vertex (lo = 300) with one neighbor encoded as the given bytes.
	one := func(nbr ...byte) fuzzSegment {
		return fuzzSegment{append([]byte{1}, nbr...), 300, 1, 1 << 20, 1}
	}
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	for _, x := range []uint64{127, 128, 16383, 16384, 300, 301} {
		seeds = append(seeds, one(uv(x)...), one(uv(x<<1)...), one(uv(x<<1|1)...))
	}
	seeds = append(seeds,
		one(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00), // 10-byte overlong 0
		one(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // 10-byte 2^64-1
		one(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), // overflows
		one(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00),
		one(0x80),
		// Negative deltas: 300 -> 299 -> 44, then one that crosses 0.
		fuzzSegment{slices.Concat([]byte{2}, binary.AppendVarint(nil, -1), binary.AppendVarint(nil, -255)), 300, 1, 1 << 20, 2},
		fuzzSegment{slices.Concat([]byte{2}, binary.AppendVarint(nil, -300), binary.AppendVarint(nil, -1)), 300, 1, 1 << 20, 2},
		// A 2-byte degree (128), and degrees that wrap the edge count after
		// one decoded edge, varint and raw.
		fuzzSegment{slices.Concat(uv(128), bytes.Repeat([]byte{0}, 128)), 0, 1, 1, 128},
		fuzzSegment{slices.Concat([]byte{1, 0}, uv(1<<64-1), make([]byte, 16)), 0, 2, 4, 2},
		fuzzSegment{slices.Concat([]byte{1, 0, 0, 0, 0}, uv(1<<64-1), make([]byte, 16)), 0, 2, 4, 2},
	)
	return seeds
}

// FuzzDecodeSegment holds decodeSegment to decodeOracle on arbitrary bytes,
// at every level, weighted and unweighted: both accept or both reject, and
// an accepted segment decodes to identical arrays.
func FuzzDecodeSegment(f *testing.F) {
	for _, s := range seedSegments(f) {
		f.Add(s.data, s.lo, s.nv, s.n, s.edges)
	}
	f.Fuzz(func(t *testing.T, data []byte, lo, nv uint16, n, edges uint32) {
		l, h := graph.VertexID(lo), graph.VertexID(lo)+graph.VertexID(nv)
		for level := LevelRaw; level <= LevelDelta; level++ {
			for _, weighted := range []bool{false, true} {
				got, gerr := decodeSegment(data, l, h, int(n), level, weighted, uint64(edges))
				want, werr := decodeOracle(data, l, h, int(n), level, weighted, uint64(edges))
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("level %d weighted %v: decodeSegment error %v, oracle error %v", level, weighted, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				sameBits := func(a, b float32) bool { return floatBits(a) == floatBits(b) } // NaN weights too
				if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Dst, want.Dst) ||
					!slices.EqualFunc(got.Weight, want.Weight, sameBits) || (got.Weight == nil) != (want.Weight == nil) {
					t.Fatalf("level %d weighted %v: decoded %v, oracle %v", level, weighted, got.CSR, *want)
				}
			}
		}
	})
}

// ReadCSR's csr decodes each slice once: the decode that builds the CSR is
// also the container's verification, so no slice is decoded a second time.
func TestReadCSRDecodesOnce(t *testing.T) {
	g := testGraph(t, true)
	s := pack(t, g, WriteOptions{Slices: 16}, 0)
	if s.NumSlices() != 16 {
		t.Fatalf("%d slices, want 16", s.NumSlices())
	}
	r, err := open(s.f.Name(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	back, err := r.csr()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("csr did not reproduce the graph")
	}
	if c := r.Counters(); c.Decodes != int64(r.NumSlices()) {
		t.Fatalf("%d decodes for %d slices", c.Decodes, r.NumSlices())
	}
}
