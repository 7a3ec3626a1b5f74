package ooc

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"graphpulse/internal/graph"
)

// Store serves a graphpack container as a graph.Adjacency, decoding slices
// on demand and keeping them resident under a byte budget — the software
// form of the paper's Section IV-F slice swapping. Eviction follows the
// solvers' ascending cyclic sweep (see admit). It is safe for concurrent
// readers: the decoded-slice pointer is an atomic, a per-slice mutex
// serializes decoding, and a store-level mutex guards eviction accounting.
// Eviction drops the store's reference; readers holding a slice returned
// before the eviction keep using it (the garbage collector reclaims it when
// the last reference dies), so the budget is a target the resident set
// settles under, not a hard allocation ceiling.
type Store struct {
	f      *os.File
	mapped []byte // non-nil when the file is memory-mapped
	hdr    header
	dir    []dirEntry
	bounds []graph.VertexID // k+1 slice boundaries
	budget int64            // resident-byte budget; <=0 means unlimited

	slices    []residentSlice
	lastSlice atomic.Int32 // the slice sliceOf returned last

	mu            sync.Mutex // guards the two gauges below and eviction
	residentBytes int64
	residentCount int

	decodes      atomic.Int64
	evictions    atomic.Int64
	hits         atomic.Int64
	decodedBytes atomic.Int64
}

// residentSlice is the residency state of one slice.
type residentSlice struct {
	mu   sync.Mutex // serializes decoding of this slice
	data atomic.Pointer[sliceData]
}

// Counters is a snapshot of the store's observability surface; METRICS.md
// documents each field.
type Counters struct {
	// Decodes counts slice decodes from the container.
	Decodes int64
	// Evictions counts budget-driven slice drops.
	Evictions int64
	// Hits counts slice lookups served by an already-resident slice: one
	// per Row (or per-field accessor) or Slice call, so one per visit of a
	// slice for the serial solver, which reads a visit's rows through one
	// Slice call.
	Hits int64
	// ResidentBytes is the decoded bytes currently charged against the
	// budget.
	ResidentBytes int64
	// ResidentSlices is the resident slice count.
	ResidentSlices int64
	// DecodedBytes is the cumulative decoded volume across all decodes;
	// DecodedBytes/ResidentBytes ≈ swap amplification.
	DecodedBytes int64
}

// Open maps the graphpack container at path with the given resident-byte
// budget (<= 0 means unlimited). The file is memory-mapped where the
// platform supports it and read through the file handle otherwise; either
// way every segment is verification-decoded once before Open returns, so a
// corrupt or truncated container fails here rather than mid-solve.
func Open(path string, residentBytes int64) (*Store, error) {
	s, err := open(path, residentBytes)
	if err != nil {
		return nil, err
	}
	// Verification pass: decode every segment once through the normal
	// residency path. This bounds memory by the budget (each slice the scan
	// just left is evicted as it advances), leaves the head of the slice set
	// resident for the first sweep, and guarantees later decodes of a
	// well-formed file cannot fail.
	for i := range s.dir {
		if _, err := s.load(i); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// open maps the container at path and parses its header and directory,
// decoding no segment.
func open(path string, residentBytes int64) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: %w", err)
	}
	s := &Store{f: f, mapped: mmapFile(f, fi.Size()), budget: residentBytes}
	if err := s.init(fi.Size()); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// IsPack reports whether path names a graphpack container, by the
// .graphpack extension or by the magic at the start of the file. It is the
// one place the format is sniffed: the serving tier's registry and
// cmd/graphpulse send what it accepts here and every other source to
// gen.Load.
func IsPack(path string) bool {
	if strings.HasSuffix(path, ".graphpack") {
		return true
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var m [8]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return false
	}
	return m == magic
}

// ReadCSR decodes the whole container at path into an in-RAM CSR, for
// callers that need the CSR itself: the cycle simulators address RowPtr and
// Dst as DRAM. It reads through a store whose budget keeps one slice
// resident, so the decode never holds the container's slices beside the
// CSR it builds, and a torn or corrupt container fails as it does in Open.
func ReadCSR(path string) (*graph.CSR, error) {
	s, err := open(path, 1)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.csr()
}

// csr decodes each slice once, in order, appending it to one CSR; this
// decode is also the container's verification.
func (s *Store) csr() (*graph.CSR, error) {
	g := &graph.CSR{
		RowPtr: make([]uint64, 1, s.hdr.n+1),
		Dst:    make([]graph.VertexID, 0, s.hdr.m),
	}
	if s.hdr.weighted() {
		g.Weight = make([]float32, 0, s.hdr.m)
	}
	for i := range s.dir {
		d, err := s.load(i)
		if err != nil {
			return nil, err
		}
		base := uint64(len(g.Dst))
		for _, off := range d.RowPtr[1:] {
			g.RowPtr = append(g.RowPtr, base+off)
		}
		g.Dst = append(g.Dst, d.Dst...)
		if g.Weight != nil {
			g.Weight = append(g.Weight, d.Weight...)
		}
	}
	return g, nil
}

// init parses the container's header and directory.
func (s *Store) init(size int64) error {
	hdr, err := parseHeader(s.f, size)
	if err != nil {
		return err
	}
	dir, err := parseDirectory(s.f, size, hdr)
	if err != nil {
		return err
	}
	s.hdr, s.dir = hdr, dir
	s.slices = make([]residentSlice, len(dir))
	s.bounds = make([]graph.VertexID, len(dir)+1)
	for i, e := range dir {
		s.bounds[i] = graph.VertexID(e.lo)
	}
	s.bounds[len(dir)] = graph.VertexID(hdr.n)
	return nil
}

// Close unmaps and closes the underlying file. The store must not be used
// afterwards.
func (s *Store) Close() error {
	var err error
	if s.mapped != nil {
		err = munmap(s.mapped)
		s.mapped = nil
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Counters returns a snapshot of the residency counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	rb, rc := s.residentBytes, s.residentCount
	s.mu.Unlock()
	return Counters{
		Decodes:        s.decodes.Load(),
		Evictions:      s.evictions.Load(),
		Hits:           s.hits.Load(),
		ResidentBytes:  rb,
		ResidentSlices: int64(rc),
		DecodedBytes:   s.decodedBytes.Load(),
	}
}

// ResetCounters zeroes the cumulative counters (decodes, evictions, hits,
// decoded bytes), leaving the residency gauges alone. Benchmarks call it
// after Open's verification pass so measurements cover only the solve.
func (s *Store) ResetCounters() {
	s.decodes.Store(0)
	s.evictions.Store(0)
	s.hits.Store(0)
	s.decodedBytes.Store(0)
}

// Level returns the container's compression level.
func (s *Store) Level() int { return int(s.hdr.level) }

// NumSlices returns the container's slice count.
func (s *Store) NumSlices() int { return len(s.dir) }

// SliceBoundaries returns the k+1 vertex boundaries of the container's
// slices ([0 … n]), making the store a graph.Sliced: the native solvers
// sweep their worklists slice by slice and the parallel solver aligns
// worker shards to them, so each residency unit is visited once per sweep.
func (s *Store) SliceBoundaries() []graph.VertexID { return s.bounds }

// segment returns the raw bytes of slice i's segment.
func (s *Store) segment(i int) ([]byte, error) {
	e := s.dir[i]
	if s.mapped != nil {
		return s.mapped[e.off : e.off+e.length], nil
	}
	buf := make([]byte, e.length)
	if _, err := s.f.ReadAt(buf, int64(e.off)); err != nil {
		return nil, fmt.Errorf("ooc: read segment %d: %w", i, err)
	}
	return buf, nil
}

// load returns slice i's decoded data, decoding and admitting it if absent.
func (s *Store) load(i int) (*sliceData, error) {
	sl := &s.slices[i]
	if d := sl.data.Load(); d != nil {
		s.hits.Add(1)
		return d, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if d := sl.data.Load(); d != nil { // raced with another decoder
		s.hits.Add(1)
		return d, nil
	}
	raw, err := s.segment(i)
	if err != nil {
		return nil, err
	}
	e := s.dir[i]
	d, err := decodeSegment(raw, graph.VertexID(e.lo), graph.VertexID(e.hi),
		int(s.hdr.n), int(s.hdr.level), s.hdr.weighted(), edgeCount(s.dir, i, s.hdr.m))
	if err != nil {
		return nil, err
	}
	s.decodes.Add(1)
	s.decodedBytes.Add(d.bytes)
	sl.data.Store(d)
	s.admit(i, d.bytes)
	return d, nil
}

// admit charges a freshly decoded slice against the budget and evicts
// resident slices (never the one just admitted) until the budget is met or
// nothing else is resident. The victim is the slice farthest ahead of keep
// in slice order, (j - keep) mod k: the one an ascending cyclic sweep —
// Worklist.Pop's order — reaches last, so it is Belady's choice for that
// sweep. With room for c of k slices, a sweep then decodes about k-c+1 of
// them, where least-recently-used eviction decodes all k on every sweep.
func (s *Store) admit(keep int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.residentBytes += bytes
	s.residentCount++
	if s.budget <= 0 {
		return
	}
	k := len(s.slices)
	for s.residentBytes > s.budget && s.residentCount > 1 {
		victim := -1
		for dist := k - 1; dist > 0; dist-- {
			if j := (keep + dist) % k; s.slices[j].data.Load() != nil {
				victim = j
				break
			}
		}
		if victim < 0 {
			return
		}
		if d := s.slices[victim].data.Swap(nil); d != nil {
			s.residentBytes -= d.bytes
			s.residentCount--
			s.evictions.Add(1)
		}
	}
}

// mustLoad is load for the Adjacency accessors, which cannot return errors.
// Open's verification pass proves every segment decodes, so a failure here
// means the backing file was truncated or rewritten underneath the store.
func (s *Store) mustLoad(i int) *sliceData {
	d, err := s.load(i)
	if err != nil {
		panic(fmt.Sprintf("ooc: backing container changed under a live store: %v", err))
	}
	return d
}

// sliceOf returns the index of the slice containing v, trying the slice of
// the previous lookup first: a solver's visit reads one slice's rows in a
// row.
func (s *Store) sliceOf(v graph.VertexID) int {
	i := int(s.lastSlice.Load())
	if e := s.dir[i]; uint64(v) >= e.lo && uint64(v) < e.hi {
		return i
	}
	i = sort.Search(len(s.dir), func(i int) bool {
		return graph.VertexID(s.dir[i].hi) > v
	})
	s.lastSlice.Store(int32(i))
	return i
}

// NumVertices returns the vertex count.
func (s *Store) NumVertices() int { return int(s.hdr.n) }

// NumEdges returns the edge count.
func (s *Store) NumEdges() int { return int(s.hdr.m) }

// Weighted reports whether the container carries edge weights.
func (s *Store) Weighted() bool { return s.hdr.weighted() }

// Slice returns the slice holding v as a CSR over local ids whose Dst holds
// global ids, and the slice's first vertex: v's row is rows.Row(v-lo). It is
// the one vertex-indexed lookup every accessor below shares — one slice
// search and one residency touch — and it makes the store a graph.Sliced.
// rows aliases the resident decode buffer and must not be modified; it stays
// valid after eviction (eviction drops the store's reference, not the
// caller's).
func (s *Store) Slice(v graph.VertexID) (lo graph.VertexID, rows *graph.CSR) {
	i := s.sliceOf(v)
	return graph.VertexID(s.dir[i].lo), &s.mustLoad(i).CSR
}

// Row returns the out-neighbors of v and their weights (nil for unweighted
// containers) from a single residency touch. Same aliasing rules as Slice.
func (s *Store) Row(v graph.VertexID) (dst []graph.VertexID, wt []float32) {
	lo, rows := s.Slice(v)
	return rows.Row(v - lo)
}

// OutDegree returns the out-degree of v.
func (s *Store) OutDegree(v graph.VertexID) int {
	lo, rows := s.Slice(v)
	return rows.OutDegree(v - lo)
}

// Neighbors returns the out-neighbors of v. Same aliasing rules as Row.
func (s *Store) Neighbors(v graph.VertexID) []graph.VertexID {
	dst, _ := s.Row(v)
	return dst
}

// NeighborWeights returns the out-edge weights of v, nil for unweighted
// containers (without touching the slice). Same aliasing rules as Row.
func (s *Store) NeighborWeights(v graph.VertexID) []float32 {
	if !s.hdr.weighted() {
		return nil
	}
	_, wt := s.Row(v)
	return wt
}

var (
	_ graph.Adjacency = (*Store)(nil)
	_ graph.Sliced    = (*Store)(nil)
)
