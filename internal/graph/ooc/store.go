package ooc

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"graphpulse/internal/graph"
)

// Store serves a graphpack container as a graph.Adjacency, decoding slices
// on demand and keeping them resident under an LRU byte budget — the
// software form of the paper's Section IV-F slice swapping. It is safe for
// concurrent readers: the decoded-slice pointer and last-use stamp are
// atomics, a per-slice mutex serializes decoding, and a store-level mutex
// guards eviction accounting. Eviction drops the store's reference; readers
// holding a slice returned before the eviction keep using it (the garbage
// collector reclaims it when the last reference dies), so the budget is a
// target the resident set settles under, not a hard allocation ceiling.
type Store struct {
	r      io.ReaderAt
	f      *os.File // nil for OpenReaderAt stores
	mapped []byte   // non-nil when the file is memory-mapped
	hdr    header
	dir    []dirEntry
	bounds []graph.VertexID // k+1 slice boundaries
	budget int64            // resident-byte budget; <=0 means unlimited

	slices []residentSlice
	clock  atomic.Int64 // global access stamp for approximate LRU

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
	last atomic.Int64 // clock stamp of the most recent access
}

// Counters is a snapshot of the store's observability surface; METRICS.md
// documents each field.
type Counters struct {
	// Decodes counts slice decodes from the container.
	Decodes int64
	// Evictions counts budget-driven slice drops.
	Evictions int64
	// Hits counts row and edge reads served by an already-resident slice:
	// one per Row (or per-field accessor) call.
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
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: %w", err)
	}
	mapped := mmapFile(f, fi.Size())
	s, err := newStoreMapped(f, mapped, fi.Size(), residentBytes)
	if err != nil {
		if mapped != nil {
			munmap(mapped)
		}
		f.Close()
		return nil, err
	}
	s.f = f
	return s, nil
}

// OpenReaderAt opens a graphpack container from an arbitrary io.ReaderAt
// (e.g. an in-memory buffer in tests and fuzzing). Close is a no-op for
// such stores.
func OpenReaderAt(r io.ReaderAt, size int64, residentBytes int64) (*Store, error) {
	return newStoreMapped(r, nil, size, residentBytes)
}

func newStoreMapped(r io.ReaderAt, mapped []byte, size int64, budget int64) (*Store, error) {
	hdr, err := parseHeader(r, size)
	if err != nil {
		return nil, err
	}
	dir, err := parseDirectory(r, size, hdr)
	if err != nil {
		return nil, err
	}
	s := &Store{r: r, mapped: mapped, hdr: hdr, dir: dir, budget: budget}
	s.slices = make([]residentSlice, len(dir))
	s.bounds = make([]graph.VertexID, len(dir)+1)
	for i, e := range dir {
		s.bounds[i] = graph.VertexID(e.lo)
	}
	s.bounds[len(dir)] = graph.VertexID(hdr.n)
	// Verification pass: decode every segment once through the normal
	// residency path. This bounds memory by the budget (cold slices are
	// evicted as the scan advances), warms the tail of the slice set, and
	// guarantees later decodes of a well-formed file cannot fail.
	for i := range dir {
		if _, err := s.load(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Close unmaps and closes the underlying file. The store must not be used
// afterwards.
func (s *Store) Close() error {
	var err error
	if s.mapped != nil {
		err = munmap(s.mapped)
		s.mapped = nil
	}
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
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
	if _, err := s.r.ReadAt(buf, int64(e.off)); err != nil {
		return nil, fmt.Errorf("ooc: read segment %d: %w", i, err)
	}
	return buf, nil
}

// load returns slice i's decoded data, decoding and admitting it if absent.
func (s *Store) load(i int) (*sliceData, error) {
	sl := &s.slices[i]
	if d := sl.data.Load(); d != nil {
		sl.last.Store(s.clock.Add(1))
		s.hits.Add(1)
		return d, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if d := sl.data.Load(); d != nil { // raced with another decoder
		sl.last.Store(s.clock.Add(1))
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
	sl.last.Store(s.clock.Add(1))
	sl.data.Store(d)
	s.admit(i, d.bytes)
	return d, nil
}

// admit charges a freshly decoded slice against the budget and evicts the
// coldest resident slices (never the one just admitted) until the budget is
// met or nothing else is resident.
func (s *Store) admit(keep int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.residentBytes += bytes
	s.residentCount++
	if s.budget <= 0 {
		return
	}
	for s.residentBytes > s.budget && s.residentCount > 1 {
		victim, oldest := -1, int64(1<<62)
		for j := range s.slices {
			if j == keep || s.slices[j].data.Load() == nil {
				continue
			}
			if last := s.slices[j].last.Load(); last < oldest {
				victim, oldest = j, last
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

// sliceOf returns the index of the slice containing v.
func (s *Store) sliceOf(v graph.VertexID) int {
	return sort.Search(len(s.dir), func(i int) bool {
		return graph.VertexID(s.dir[i].hi) > v
	})
}

// sliceOfEdge returns the index of the slice containing global edge i.
func (s *Store) sliceOfEdge(i uint64) int {
	return sort.Search(len(s.dir), func(j int) bool {
		return edgeCount(s.dir, j, s.hdr.m)+s.dir[j].firstEdge > i
	})
}

// NumVertices returns the vertex count.
func (s *Store) NumVertices() int { return int(s.hdr.n) }

// NumEdges returns the edge count.
func (s *Store) NumEdges() int { return int(s.hdr.m) }

// Weighted reports whether the container carries edge weights.
func (s *Store) Weighted() bool { return s.hdr.weighted() }

// row is the one vertex-indexed lookup every accessor below shares: one
// slice search and one residency touch, returning v's slice index, the
// slice's decoded data and v's edge range [lo, hi) inside it.
func (s *Store) row(v graph.VertexID) (i int, d *sliceData, lo, hi uint64) {
	i = s.sliceOf(v)
	d = s.mustLoad(i)
	off := int(v - graph.VertexID(s.dir[i].lo))
	return i, d, d.rowPtr[off], d.rowPtr[off+1]
}

// Row returns the out-neighbors of v and their weights (nil for unweighted
// containers) from a single residency touch. The slices alias the resident
// decode buffer and must not be modified; they stay valid after eviction
// (eviction drops the store's reference, not the caller's).
func (s *Store) Row(v graph.VertexID) (dst []graph.VertexID, wt []float32) {
	_, d, lo, hi := s.row(v)
	if !s.hdr.weighted() {
		return d.dst[lo:hi], nil
	}
	return d.dst[lo:hi], d.wt[lo:hi]
}

// OutDegree returns the out-degree of v.
func (s *Store) OutDegree(v graph.VertexID) int {
	_, _, lo, hi := s.row(v)
	return int(hi - lo)
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

// EdgeOffset returns the global index of the first out-edge of v.
func (s *Store) EdgeOffset(v graph.VertexID) uint64 {
	i, _, lo, _ := s.row(v)
	return s.dir[i].firstEdge + lo
}

// EdgeDst returns the destination of the i-th edge.
func (s *Store) EdgeDst(i uint64) graph.VertexID {
	j := s.sliceOfEdge(i)
	return s.mustLoad(j).dst[i-s.dir[j].firstEdge]
}

// EdgeWeight returns the weight of the i-th edge (1 when unweighted).
func (s *Store) EdgeWeight(i uint64) float32 {
	if !s.hdr.weighted() {
		return 1
	}
	j := s.sliceOfEdge(i)
	return s.mustLoad(j).wt[i-s.dir[j].firstEdge]
}

// Validate re-checks the directory invariants. The per-edge checks ran
// during Open's verification decode, so this is O(slices).
func (s *Store) Validate() error {
	var lo, edge uint64
	for i, e := range s.dir {
		if e.lo != lo || e.hi <= e.lo || e.firstEdge != edge {
			return fmt.Errorf("ooc: directory entry %d inconsistent", i)
		}
		lo, edge = e.hi, e.firstEdge+edgeCount(s.dir, i, s.hdr.m)
	}
	if lo != s.hdr.n || edge != s.hdr.m {
		return fmt.Errorf("ooc: directory covers %d vertices / %d edges, header says %d / %d",
			lo, edge, s.hdr.n, s.hdr.m)
	}
	return nil
}

var _ graph.Adjacency = (*Store)(nil)
