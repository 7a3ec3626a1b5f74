package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"graphpulse/internal/graph"
	"graphpulse/internal/stream"
)

// SnapshotVersion identifies the on-disk/wire snapshot format.
const SnapshotVersion = 1

// Snapshot is a warm-restart image of one resident graph: the live edge
// set and epoch, plus every converged result cached at that epoch. It
// stores float state as raw IEEE-754 bits so ±Inf values (unreachable
// vertices under SSSP-style algorithms) and bit-exact round-tripping
// survive JSON. It snapshots the *service* state (graph version + solved
// fixed points), never a mid-flight event population. The distributed
// tier (internal/dserve) persists snapshots for warm worker restart and
// ships them between replicas so a rejoining worker resynchronizes
// without a cold re-solve.
type Snapshot struct {
	Version     int    `json:"version"`
	Graph       string `json:"graph"`
	Epoch       uint64 `json:"epoch"`
	NumVertices int    `json:"num_vertices"`
	Weighted    bool   `json:"weighted"`
	// Edges is the complete live edge set at Epoch, in CSR order.
	Edges []SnapshotEdge `json:"edges"`
	// Series holds the results cached at exactly Epoch, one per
	// algorithm series.
	Series []SnapshotSeries `json:"series,omitempty"`
}

// SnapshotEdge is one directed edge of the snapshotted edge set.
type SnapshotEdge struct {
	Src    uint32  `json:"s"`
	Dst    uint32  `json:"d"`
	Weight float32 `json:"w,omitempty"`
}

// SnapshotSeries is one cached fixed point: the graph-local series key
// ("solve|algKey", without the graph name so the snapshot transplants
// cleanly) and the converged per-vertex values as IEEE-754 bits.
type SnapshotSeries struct {
	Key         string   `json:"key"`
	Mode        string   `json:"mode"`
	Activations int64    `json:"activations"`
	ComputeSecs float64  `json:"compute_seconds"`
	ValuesBits  []uint64 `json:"values_bits"`
}

// ErrSnapshotStale is returned by ImportSnapshot when the snapshot's epoch
// is older than the resident graph's — the local state is already newer,
// so adopting the snapshot would rewind it.
var ErrSnapshotStale = stream.ErrStale

// ExportSnapshot captures the named resident graph's current edge set,
// epoch, and every result cached at that epoch.
func (s *Server) ExportSnapshot(name string) (*Snapshot, error) {
	rg, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown graph %q", name)
	}
	g, epoch := rg.snapshot()
	if g == nil {
		return nil, rg.readOnlyErr()
	}
	snap := &Snapshot{
		Version:     SnapshotVersion,
		Graph:       name,
		Epoch:       epoch,
		NumVertices: g.NumVertices(),
		Weighted:    g.Weighted(),
		Edges:       make([]SnapshotEdge, 0, g.NumEdges()),
	}
	for v := 0; v < g.NumVertices(); v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			e := SnapshotEdge{Src: uint32(v), Dst: g.Dst[i]}
			if g.Weight != nil {
				e.Weight = g.Weight[i]
			}
			snap.Edges = append(snap.Edges, e)
		}
	}
	prefix := name + "|"
	for key, res := range s.cache.exportSeries(prefix, epoch) {
		ss := SnapshotSeries{
			Key:         strings.TrimPrefix(key, prefix),
			Mode:        res.Mode,
			Activations: res.Activations,
			ComputeSecs: res.ComputeSecs,
			ValuesBits:  make([]uint64, len(res.Values)),
		}
		for i, v := range res.Values {
			ss.ValuesBits[i] = math.Float64bits(v)
		}
		snap.Series = append(snap.Series, ss)
	}
	// The cache hands series over in map order; sort so two exports of one
	// state are the same bytes and snapshot files can be compared or hashed.
	sort.Slice(snap.Series, func(i, j int) bool { return snap.Series[i].Key < snap.Series[j].Key })
	return snap, nil
}

// ImportSnapshot adopts a snapshot taken by a server with the same graph
// configuration: the resident graph's edge set and epoch are replaced by
// the snapshot's, and every snapshotted series is inserted into the result
// cache at that epoch — so the next identical query is a cache hit, not a
// cold re-solve. The snapshot must target a resident graph with the same
// vertex count and weight mode; a snapshot older than the resident epoch
// is rejected with ErrSnapshotStale. The mutation history is cleared
// (warm starts across the restore boundary fall back to the imported
// cache entries).
func (s *Server) ImportSnapshot(snap *Snapshot) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	rg, ok := s.graphs[snap.Graph]
	if !ok {
		return fmt.Errorf("serve: snapshot is for graph %q, not resident", snap.Graph)
	}
	edges := make([]graph.Edge, len(snap.Edges))
	for i, e := range snap.Edges {
		edges[i] = graph.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
	}
	for _, ss := range snap.Series {
		if len(ss.ValuesBits) != snap.NumVertices {
			return fmt.Errorf("serve: snapshot series %q has %d values, want %d",
				ss.Key, len(ss.ValuesBits), snap.NumVertices)
		}
	}
	err := rg.write(func(sg *stream.Graph) (stream.Change, error) {
		return stream.Change{}, sg.Reset(snap.NumVertices, snap.Weighted, edges, snap.Epoch)
	})
	if err != nil {
		return fmt.Errorf("serve: graph %q: %w", snap.Graph, err)
	}
	for _, ss := range snap.Series {
		values := make([]float64, len(ss.ValuesBits))
		for i, bits := range ss.ValuesBits {
			values[i] = math.Float64frombits(bits)
		}
		s.cache.put(snap.Graph+"|"+ss.Key, snap.Epoch,
			newCachedResult(values, snap.Epoch, ss.Mode, ss.Activations, ss.ComputeSecs))
	}
	return nil
}

// GraphNames lists the resident graphs in registration order — the set a
// distributed-tier worker advertises to its router.
func (s *Server) GraphNames() []string {
	return append([]string(nil), s.order...)
}

// GraphEpoch reports the named resident graph's current epoch.
func (s *Server) GraphEpoch(name string) (uint64, error) {
	rg, ok := s.graphs[name]
	if !ok {
		return 0, fmt.Errorf("serve: unknown graph %q", name)
	}
	_, epoch := rg.snapshot()
	return epoch, nil
}
