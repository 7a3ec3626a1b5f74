// Package ooc is the out-of-core graph substrate: the software analogue of
// the paper's Section IV-F slice swapping (S12). A graph is stored on disk
// in the graphpack container — per-slice segments of delta/varint-compressed
// CSR neighbor lists, laid out along partition.Split boundaries — and served
// through an mmap-backed (portable io.ReaderAt fallback) Store that decodes
// slices lazily, keeps them resident under a byte budget, and evicts the
// slice the solvers' cyclic sweep reaches last. The Store implements
// graph.Adjacency, so the native solvers and the serving tier can run
// directly off a graph ~10× larger than memory: at any instant only the
// resident slice set is decoded. ReadCSR decodes a whole container into an
// in-RAM CSR for the cycle simulators, which address the CSR arrays as DRAM.
//
// The Store is also a graph.Sliced: the native solvers (algorithms.SolveCtx,
// psolve) order their worklists by its slice boundaries and sweep them
// cyclically, so a budgeted store decodes each slice at most once per sweep
// instead of once per activation, and they read each activated vertex's
// row with one Row call — one slice search and one residency touch, which
// every vertex-indexed accessor shares.
//
// Container layout (all integers little-endian):
//
//	header    8-byte magic "GPKPACK1", uint32 flags (bit0 = weighted),
//	          uint32 level, uint64 vertices, uint64 edges, uint64 slices
//	directory one 40-byte entry per slice:
//	          uint64 lo, hi (vertex range [lo,hi)), firstEdge (global edge
//	          offset of the slice's first edge), offset, length (segment
//	          byte range in the file)
//	segments  per-slice compressed neighbor lists, back to back
//
// A segment encodes each vertex of its range in order: a uvarint out-degree,
// the neighbor ids at the container's compression level (see Level*), then —
// for weighted graphs — one raw float32 per neighbor. Neighbor order is
// preserved exactly, so a decoded slice reproduces the source CSR bit for
// bit and every engine observes the identical edge schedule.
package ooc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/partition"
)

func floatBits(x float32) uint32     { return math.Float32bits(x) }
func floatFromBits(b uint32) float32 { return math.Float32frombits(b) }

// Compression levels for neighbor ids within a segment.
const (
	// LevelRaw stores each neighbor as a fixed 4-byte id.
	LevelRaw = 0
	// LevelVarint stores each neighbor as a uvarint.
	LevelVarint = 1
	// LevelDelta stores zigzag varint deltas: the first neighbor relative to
	// the source vertex id, each subsequent neighbor relative to its
	// predecessor. Locality-ordered graphs compress to ~1–2 bytes per edge.
	LevelDelta = 2
)

// magic is the 8-byte container signature IsPack sniffs.
var magic = [8]byte{'G', 'P', 'K', 'P', 'A', 'C', 'K', '1'}

const (
	headerSize   = 40
	dirEntrySize = 40
	flagWeighted = 1 << 0

	// maxSlices bounds the directory allocation against hostile headers;
	// every other allocation is bounded by the actual file size.
	maxSlices = 1 << 20
)

// header is the decoded fixed-size container header.
type header struct {
	flags uint32
	level uint32
	n     uint64 // vertices
	m     uint64 // edges
	k     uint64 // slices
}

func (h header) weighted() bool { return h.flags&flagWeighted != 0 }

// dirEntry locates one slice's segment.
type dirEntry struct {
	lo, hi    uint64 // vertex range [lo, hi)
	firstEdge uint64 // global edge offset of the slice's first edge
	off       uint64 // segment byte offset in the file
	length    uint64 // segment byte length
}

// WriteOptions tunes the graphpack writer. The zero value selects the
// documented defaults.
type WriteOptions struct {
	// Level is the neighbor-id compression level (default LevelDelta).
	// Explicitly selecting LevelRaw requires RawLevel (0 is the zero value).
	Level int
	// RawLevel forces LevelRaw when Level is 0.
	RawLevel bool
	// Slices is the target slice count (default 16, clamped to the vertex
	// count by the partitioner). More slices mean finer-grained residency.
	Slices int
	// Refine is the partition boundary-refinement pass count (default 1).
	Refine int
}

func (o WriteOptions) withDefaults() WriteOptions {
	if o.Level == 0 && !o.RawLevel {
		o.Level = LevelDelta
	}
	if o.Slices <= 0 {
		o.Slices = 16
	}
	if o.Refine <= 0 {
		o.Refine = 1
	}
	return o
}

// Write encodes g into the graphpack container format on w. Slice boundaries
// come from partition.Split, so they are contiguous, vertex-balanced, and
// edge-cut refined — the same boundaries the parallel solver aligns its
// shards to when solving off the store.
func Write(w io.Writer, g *graph.CSR, opt WriteOptions) error {
	opt = opt.withDefaults()
	if opt.Level < LevelRaw || opt.Level > LevelDelta {
		return fmt.Errorf("ooc: level %d, want %d..%d", opt.Level, LevelRaw, LevelDelta)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("ooc: %w", err)
	}
	part, err := partition.Split(g, opt.Slices, opt.Refine)
	if err != nil {
		return fmt.Errorf("ooc: %w", err)
	}
	k := part.NumSlices()

	segs := make([][]byte, k)
	for i, sl := range part.Slices {
		segs[i] = encodeSegment(g, sl.Lo, sl.Hi, opt.Level)
	}

	hdr := header{
		level: uint32(opt.Level),
		n:     uint64(g.NumVertices()),
		m:     uint64(g.NumEdges()),
		k:     uint64(k),
	}
	if g.Weighted() {
		hdr.flags |= flagWeighted
	}
	buf := make([]byte, 0, headerSize+k*dirEntrySize)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, hdr.flags)
	buf = binary.LittleEndian.AppendUint32(buf, hdr.level)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.n)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.m)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.k)

	off := uint64(headerSize + k*dirEntrySize)
	for i, sl := range part.Slices {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sl.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sl.Hi))
		buf = binary.LittleEndian.AppendUint64(buf, g.RowPtr[sl.Lo])
		buf = binary.LittleEndian.AppendUint64(buf, off)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(segs[i])))
		off += uint64(len(segs[i]))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("ooc: write header: %w", err)
	}
	for _, seg := range segs {
		if _, err := w.Write(seg); err != nil {
			return fmt.Errorf("ooc: write segment: %w", err)
		}
	}
	return nil
}

// encodeSegment compresses the neighbor lists of vertices [lo, hi).
func encodeSegment(g *graph.CSR, lo, hi graph.VertexID, level int) []byte {
	// Size estimate: varint degree + ids + optional weights.
	est := int(hi-lo) * 2
	first, last := g.RowPtr[lo], g.RowPtr[hi]
	est += int(last-first) * 5
	if g.Weighted() {
		est += int(last-first) * 4
	}
	buf := make([]byte, 0, est)
	for v := lo; v < hi; v++ {
		nbrs := g.Neighbors(v)
		buf = binary.AppendUvarint(buf, uint64(len(nbrs)))
		switch level {
		case LevelRaw:
			for _, d := range nbrs {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
			}
		case LevelVarint:
			for _, d := range nbrs {
				buf = binary.AppendUvarint(buf, uint64(d))
			}
		case LevelDelta:
			prev := int64(v)
			for _, d := range nbrs {
				buf = binary.AppendVarint(buf, int64(d)-prev)
				prev = int64(d)
			}
		}
		if w := g.NeighborWeights(v); w != nil {
			for _, x := range w {
				buf = binary.LittleEndian.AppendUint32(buf, floatBits(x))
			}
		}
	}
	return buf
}

// sliceData is one decoded (resident) slice: a local CSR over [lo, hi).
type sliceData struct {
	rowPtr []uint64 // len hi-lo+1, local edge offsets from 0
	dst    []graph.VertexID
	wt     []float32 // nil when the container is unweighted
	bytes  int64     // decoded footprint charged against the budget
}

// decodeSegment decodes one slice's segment. expectEdges is the edge count
// the directory promises; any mismatch, out-of-range destination, or trailing
// garbage is an error. Allocations are bounded by len(data): a well-formed
// vertex costs at least one byte and an edge at least one byte (four at
// LevelRaw), and those invariants are enforced before allocating.
func decodeSegment(data []byte, lo, hi graph.VertexID, n int, level int, weighted bool, expectEdges uint64) (*sliceData, error) {
	nv := int(hi - lo)
	minEdge := uint64(1)
	if level == LevelRaw {
		minEdge = 4
	}
	if weighted {
		minEdge += 4
	}
	if uint64(len(data)) < uint64(nv)+minEdge*expectEdges {
		return nil, fmt.Errorf("ooc: segment for [%d,%d) is %d bytes, below floor for %d edges",
			lo, hi, len(data), expectEdges)
	}
	d := &sliceData{
		rowPtr: make([]uint64, nv+1),
		dst:    make([]graph.VertexID, 0, expectEdges),
	}
	if weighted {
		d.wt = make([]float32, 0, expectEdges)
	}
	pos := 0
	for v := lo; v < hi; v++ {
		deg, l := binary.Uvarint(data[pos:])
		if l <= 0 {
			return nil, fmt.Errorf("ooc: bad degree varint at vertex %d", v)
		}
		pos += l
		if uint64(len(d.dst))+deg > expectEdges {
			return nil, fmt.Errorf("ooc: slice [%d,%d) exceeds directory edge count %d", lo, hi, expectEdges)
		}
		switch level {
		case LevelRaw:
			if pos+4*int(deg) > len(data) {
				return nil, fmt.Errorf("ooc: truncated raw neighbors at vertex %d", v)
			}
			for j := uint64(0); j < deg; j++ {
				id := binary.LittleEndian.Uint32(data[pos:])
				pos += 4
				if int(id) >= n {
					return nil, fmt.Errorf("ooc: edge %d->%d out of range [0,%d)", v, id, n)
				}
				d.dst = append(d.dst, graph.VertexID(id))
			}
		case LevelVarint:
			for j := uint64(0); j < deg; j++ {
				id, l := binary.Uvarint(data[pos:])
				if l <= 0 {
					return nil, fmt.Errorf("ooc: bad neighbor varint at vertex %d", v)
				}
				pos += l
				if id >= uint64(n) {
					return nil, fmt.Errorf("ooc: edge %d->%d out of range [0,%d)", v, id, n)
				}
				d.dst = append(d.dst, graph.VertexID(id))
			}
		case LevelDelta:
			prev := int64(v)
			for j := uint64(0); j < deg; j++ {
				delta, l := binary.Varint(data[pos:])
				if l <= 0 {
					return nil, fmt.Errorf("ooc: bad neighbor delta at vertex %d", v)
				}
				pos += l
				id := prev + delta
				if id < 0 || id >= int64(n) {
					return nil, fmt.Errorf("ooc: edge %d->%d out of range [0,%d)", v, id, n)
				}
				prev = id
				d.dst = append(d.dst, graph.VertexID(id))
			}
		}
		if weighted {
			if pos+4*int(deg) > len(data) {
				return nil, fmt.Errorf("ooc: truncated weights at vertex %d", v)
			}
			for j := uint64(0); j < deg; j++ {
				d.wt = append(d.wt, floatFromBits(binary.LittleEndian.Uint32(data[pos:])))
				pos += 4
			}
		}
		d.rowPtr[int(v-lo)+1] = uint64(len(d.dst))
	}
	if pos != len(data) {
		return nil, fmt.Errorf("ooc: %d trailing bytes after slice [%d,%d)", len(data)-pos, lo, hi)
	}
	if uint64(len(d.dst)) != expectEdges {
		return nil, fmt.Errorf("ooc: slice [%d,%d) decoded %d edges, directory says %d",
			lo, hi, len(d.dst), expectEdges)
	}
	d.bytes = int64(len(d.rowPtr))*8 + int64(len(d.dst))*4 + int64(len(d.wt))*4
	return d, nil
}

// parseHeader decodes and sanity-checks the fixed header against the file
// size, bounding every subsequent allocation.
func parseHeader(r io.ReaderAt, size int64) (header, error) {
	var h header
	if size < headerSize {
		return h, fmt.Errorf("ooc: file is %d bytes, below the %d-byte header", size, headerSize)
	}
	raw := make([]byte, headerSize)
	if _, err := r.ReadAt(raw, 0); err != nil {
		return h, fmt.Errorf("ooc: read header: %w", err)
	}
	for i := range magic {
		if raw[i] != magic[i] {
			return h, fmt.Errorf("ooc: bad magic %q, want %q", raw[:8], magic[:])
		}
	}
	h.flags = binary.LittleEndian.Uint32(raw[8:])
	h.level = binary.LittleEndian.Uint32(raw[12:])
	h.n = binary.LittleEndian.Uint64(raw[16:])
	h.m = binary.LittleEndian.Uint64(raw[24:])
	h.k = binary.LittleEndian.Uint64(raw[32:])
	if h.flags&^uint32(flagWeighted) != 0 {
		return h, fmt.Errorf("ooc: unknown flags %#x", h.flags)
	}
	if h.level > LevelDelta {
		return h, fmt.Errorf("ooc: unknown compression level %d", h.level)
	}
	if h.k > maxSlices {
		return h, fmt.Errorf("ooc: %d slices exceeds limit %d", h.k, maxSlices)
	}
	payload := uint64(size - headerSize)
	if h.k*dirEntrySize > payload {
		return h, fmt.Errorf("ooc: directory (%d entries) exceeds file size", h.k)
	}
	// A well-formed vertex costs ≥1 byte and an edge ≥1 more, so n and m are
	// bounded by the segment payload; this caps the boundary/ directory
	// bookkeeping allocations on hostile headers.
	if h.n > payload || h.m > payload {
		return h, fmt.Errorf("ooc: header claims %d vertices / %d edges in a %d-byte file", h.n, h.m, size)
	}
	if h.n == 0 && (h.m != 0 || h.k != 0) {
		return h, fmt.Errorf("ooc: empty graph with %d edges / %d slices", h.m, h.k)
	}
	if h.n > 0 && h.k == 0 {
		return h, fmt.Errorf("ooc: %d vertices but no slices", h.n)
	}
	return h, nil
}

// parseDirectory decodes and validates the slice directory: contiguous
// vertex ranges covering [0, n), monotone edge offsets summing to m, and
// segment byte ranges packed back to back inside the file.
func parseDirectory(r io.ReaderAt, size int64, h header) ([]dirEntry, error) {
	k := int(h.k)
	if k == 0 {
		if size != headerSize {
			return nil, fmt.Errorf("ooc: %d bytes after an empty directory", size-headerSize)
		}
		return nil, nil
	}
	raw := make([]byte, k*dirEntrySize)
	if _, err := r.ReadAt(raw, headerSize); err != nil {
		return nil, fmt.Errorf("ooc: read directory: %w", err)
	}
	dir := make([]dirEntry, k)
	wantOff := uint64(headerSize + k*dirEntrySize)
	var wantLo, prevEdge uint64
	for i := range dir {
		e := dirEntry{
			lo:        binary.LittleEndian.Uint64(raw[i*dirEntrySize:]),
			hi:        binary.LittleEndian.Uint64(raw[i*dirEntrySize+8:]),
			firstEdge: binary.LittleEndian.Uint64(raw[i*dirEntrySize+16:]),
			off:       binary.LittleEndian.Uint64(raw[i*dirEntrySize+24:]),
			length:    binary.LittleEndian.Uint64(raw[i*dirEntrySize+32:]),
		}
		if e.lo != wantLo || e.hi <= e.lo || e.hi > h.n {
			return nil, fmt.Errorf("ooc: slice %d range [%d,%d) breaks coverage at %d", i, e.lo, e.hi, wantLo)
		}
		if i == 0 && e.firstEdge != 0 {
			return nil, fmt.Errorf("ooc: slice 0 firstEdge %d, want 0", e.firstEdge)
		}
		if e.firstEdge < prevEdge || e.firstEdge > h.m {
			return nil, fmt.Errorf("ooc: slice %d firstEdge %d not in [%d,%d]", i, e.firstEdge, prevEdge, h.m)
		}
		prevEdge = e.firstEdge
		if e.off != wantOff || e.length > uint64(size) || e.off+e.length > uint64(size) {
			return nil, fmt.Errorf("ooc: slice %d segment [%d,+%d) outside file", i, e.off, e.length)
		}
		wantLo = e.hi
		wantOff = e.off + e.length
		dir[i] = e
	}
	if wantLo != h.n {
		return nil, fmt.Errorf("ooc: directory covers [0,%d), header says %d vertices", wantLo, h.n)
	}
	if wantOff != uint64(size) {
		return nil, fmt.Errorf("ooc: segments end at %d, file is %d bytes", wantOff, size)
	}
	return dir, nil
}

// edgeCount returns the number of edges the directory assigns to slice i.
func edgeCount(dir []dirEntry, i int, m uint64) uint64 {
	if i+1 < len(dir) {
		return dir[i+1].firstEdge - dir[i].firstEdge
	}
	return m - dir[i].firstEdge
}
