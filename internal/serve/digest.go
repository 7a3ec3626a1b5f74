package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"graphpulse/internal/stream"
)

// MutationHook observes every applied mutation epoch of the named graph.
// It is invoked synchronously while the graph's write lock is held —
// after the new epoch is built but before the mutation is acknowledged —
// so a durable hook (a WAL append + fsync) guarantees no acknowledged
// epoch is ever lost. The hook must be fast and must not call back into
// the Server.
type MutationHook func(graph string, ch stream.Change)

// SetMutationHook installs fn on every resident graph. Call it once,
// before serving traffic. A nil fn removes the hook.
func (s *Server) SetMutationHook(fn MutationHook) {
	for _, rg := range s.graphs {
		rg.mu.Lock()
		rg.hook = fn
		rg.mu.Unlock()
	}
}

// ApplyReplay applies one logged change to the named graph
// (stream.Graph.ApplyExact): at or below the resident epoch it is skipped
// (applied=false), at exactly epoch+1 it is applied, anything else fails
// with stream.ErrEpochGap. Replayed changes go through the same path as
// live mutations, so the mutation history (and with it warm-start
// coverage) is reconstructed and the installed MutationHook fires again —
// hooks that append to a WAL must deduplicate by epoch.
func (s *Server) ApplyReplay(graph string, ch stream.Change) (applied bool, err error) {
	rg, ok := s.graphs[graph]
	if !ok {
		return false, fmt.Errorf("serve: unknown graph %q", graph)
	}
	err = rg.write(func(sg *stream.Graph) (stream.Change, error) {
		out, err := sg.ApplyExact(ch)
		applied = out.Epoch != 0
		return out, err
	})
	return applied, err
}

// DigestInfo is one graph's consistent (epoch, state digest) pair — the
// unit of anti-entropy comparison across replicas. The digest covers the
// graph state only (vertex count, weight mode, edge multiset in CSR
// order); result caches legitimately differ between replicas and are
// excluded.
type DigestInfo struct {
	Graph       string `json:"graph"`
	Epoch       uint64 `json:"epoch"`
	NumVertices int    `json:"num_vertices"`
	NumEdges    int    `json:"num_edges"`
	Digest      string `json:"digest"`
}

// StateDigest computes the named graph's DigestInfo. The (graph, epoch)
// pair is captured atomically, so two replicas at the same epoch with
// the same mutation sequence report identical digests.
func (s *Server) StateDigest(name string) (DigestInfo, error) {
	rg, ok := s.graphs[name]
	if !ok {
		return DigestInfo{}, fmt.Errorf("serve: unknown graph %q", name)
	}
	g, epoch := rg.snapshot()
	if g == nil {
		return DigestInfo{}, rg.readOnlyErr()
	}
	h := fnv.New64a()
	var buf [12]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.NumVertices()))
	h.Write(buf[:8])
	weighted := uint64(0)
	if g.Weighted() {
		weighted = 1
	}
	binary.LittleEndian.PutUint64(buf[:], weighted)
	h.Write(buf[:8])
	for v := 0; v < g.NumVertices(); v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			w := float32(0)
			if g.Weight != nil {
				w = g.Weight[i]
			}
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			binary.LittleEndian.PutUint32(buf[4:], g.Dst[i])
			binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(w))
			h.Write(buf[:])
		}
	}
	return DigestInfo{
		Graph:       name,
		Epoch:       epoch,
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		Digest:      fmt.Sprintf("%016x", h.Sum64()),
	}, nil
}
