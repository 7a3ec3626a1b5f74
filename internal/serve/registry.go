package serve

import (
	"fmt"
	"strings"
	"sync"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/stream"
)

// GraphSpec names one resident graph and where it comes from. Exactly one
// of Graph and Source must be set.
type GraphSpec struct {
	// Name is the handle queries and mutations address the graph by.
	Name string
	// Source is a gen.Load source string: "ABBREV:tier" for a Table IV
	// synthetic stand-in built through the shared gen cache (e.g.
	// "WG:tiny", "LJ:mini"), a path to a graphpack container (served
	// out-of-core, see ResidentBytes), or a path to a text edge-list file.
	Source string
	// Graph is a pre-built in-memory graph (facade callers pass a
	// *graphpulse.Graph directly).
	Graph *graph.CSR
	// ResidentBytes is the out-of-core residency budget applied when Source
	// is a graphpack container (detected by extension or magic): decoded
	// slices stay under this many bytes, colder ones are evicted. <= 0 means
	// unlimited. Graphpack graphs are read-only — mutation and snapshot
	// export reject.
	ResidentBytes int64
}

// ParseGraphArg parses the CLI form "name=source" (or a bare source, whose
// name becomes the source string lowercased up to the first ':').
func ParseGraphArg(arg string) (GraphSpec, error) {
	name, source := "", arg
	if i := strings.IndexByte(arg, '='); i >= 0 {
		name, source = arg[:i], arg[i+1:]
	}
	if source == "" {
		return GraphSpec{}, fmt.Errorf("serve: empty graph source in %q", arg)
	}
	if name == "" {
		name = strings.ToLower(source)
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
	}
	return GraphSpec{Name: name, Source: source}, nil
}

// residentGraph is one registry entry: a stream.Graph (CSR, epoch,
// mutation history) behind a lock, or a read-only out-of-core store.
// Snapshots are consistent (graph, epoch) pairs; mutations serialize on
// the write lock.
type residentGraph struct {
	name string

	// store is set instead of sg for out-of-core graphpack residents: a
	// lazily-decoded read-only slice store pinned at epoch 0. Exactly one of
	// store and sg is non-nil.
	store *ooc.Store

	mu sync.RWMutex
	sg *stream.Graph
	// hook, when non-nil, observes every applied mutation epoch while the
	// write lock is held (see Server.SetMutationHook) — the durability
	// point the distributed tier's WAL appends at.
	hook MutationHook
}

func loadResident(spec GraphSpec, histMax int) (*residentGraph, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("serve: graph spec needs a name")
	}
	if spec.Graph == nil && ooc.IsPack(spec.Source) {
		st, err := ooc.Open(spec.Source, spec.ResidentBytes)
		if err != nil {
			return nil, err
		}
		if st.NumVertices() == 0 {
			st.Close()
			return nil, fmt.Errorf("serve: graph %q is empty", spec.Name)
		}
		return &residentGraph{name: spec.Name, store: st}, nil
	}
	g := spec.Graph
	if g == nil {
		var err error
		if g, err = gen.Load(spec.Source, gen.Default); err != nil {
			return nil, err
		}
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("serve: graph %q is empty", spec.Name)
	}
	return &residentGraph{name: spec.Name, sg: stream.NewGraph(g, histMax)}, nil
}

// snapshot returns a consistent (graph, epoch) pair. The graph is nil for
// out-of-core residents — paths that need a materialized CSR (digest,
// snapshot export, stream accounting) guard on it; compute paths use view.
func (r *residentGraph) snapshot() (*graph.CSR, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.sg == nil {
		return nil, 0
	}
	return r.sg.CSR(), r.sg.Epoch()
}

// view returns the graph to compute on and its epoch: the out-of-core store
// (pinned at epoch 0) for graphpack residents, the current CSR snapshot
// otherwise.
func (r *residentGraph) view() (graph.Adjacency, uint64) {
	if r.store != nil {
		return r.store, 0
	}
	return r.snapshot()
}

// readOnlyErr is the rejection every mutating path returns for an
// out-of-core resident.
func (r *residentGraph) readOnlyErr() error {
	return fmt.Errorf("serve: graph %q is an out-of-core store (read-only)", r.name)
}

// info summarizes the entry for /v1/graphs.
func (r *residentGraph) info() GraphInfo {
	g, epoch := r.view()
	return GraphInfo{
		Name:        r.name,
		Epoch:       epoch,
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		Weighted:    g.Weighted(),
	}
}

// write runs one epoch-advancing stream.Graph call under the write lock
// and fires the mutation hook with the Change it returns — the single
// point every such path (live batch, logged-record replay, snapshot
// adoption) goes through. Out-of-core residents reject.
func (r *residentGraph) write(fn func(*stream.Graph) (stream.Change, error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sg == nil {
		return r.readOnlyErr()
	}
	ch, err := fn(r.sg)
	if err == nil && ch.Epoch != 0 && r.hook != nil {
		r.hook(r.name, ch)
	}
	return err
}

// applyBatch applies one mutation epoch (stream.Graph.Apply) and reports
// the resulting version with the per-edge accounting.
func (r *residentGraph) applyBatch(ins, dels []graph.Edge) (out MutateResponse, err error) {
	err = r.write(func(sg *stream.Graph) (stream.Change, error) {
		ch, skipped, missed, err := sg.Apply(ins, dels)
		out = MutateResponse{
			Graph:       r.name,
			Epoch:       sg.Epoch(),
			Added:       len(ch.Added),
			Skipped:     skipped,
			Deleted:     len(ch.Removed),
			Missed:      missed,
			NumVertices: sg.CSR().NumVertices(),
			NumEdges:    sg.CSR().NumEdges(),
		}
		return ch, err
	})
	return out, err
}

// since is stream.Graph.Since pinned to a snapshot: it also fails when
// toEpoch is no longer the current epoch (the snapshot raced past a newer
// mutation — the caller cold-solves instead).
func (r *residentGraph) since(fromEpoch, toEpoch uint64) (base *graph.CSR, added, removed []graph.Edge, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.sg == nil || r.sg.Epoch() != toEpoch {
		return nil, nil, nil, false
	}
	return r.sg.Since(fromEpoch)
}
