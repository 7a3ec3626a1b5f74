package core

import (
	"fmt"

	"graphpulse/internal/graph"
)

// Event tracing: a debugging facility that records the life of selected
// vertices' events with cycle stamps. Enable by listing global vertex ids
// in Config.TraceVertices; the recorded entries come back in Result.Trace.
// Tracing is off by default and costs nothing when disabled.

// TraceKind classifies a trace entry.
type TraceKind uint8

// Trace entry kinds.
const (
	// TraceProcess: the vertex's coalesced event reached a processor;
	// Delta is the applied delta, Aux the post-reduce state.
	TraceProcess TraceKind = iota
	// TraceEmit: an event was emitted TO this vertex; Delta is the
	// propagated delta, Aux the source vertex id.
	TraceEmit
	// TraceSpill: an event for this vertex was spilled off-chip (inactive
	// slice).
	TraceSpill
)

func (k TraceKind) String() string {
	switch k {
	case TraceProcess:
		return "process"
	case TraceEmit:
		return "emit"
	case TraceSpill:
		return "spill"
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// TraceEntry is one recorded observation.
type TraceEntry struct {
	Cycle  uint64
	Vertex graph.VertexID
	Kind   TraceKind
	Delta  float64
	Aux    float64
}

// String renders the entry for logs.
func (e TraceEntry) String() string {
	return fmt.Sprintf("@%d v%d %s delta=%g aux=%g", e.Cycle, e.Vertex, e.Kind, e.Delta, e.Aux)
}

// tracer holds the selected vertex set and recorded entries.
type tracer struct {
	want    map[graph.VertexID]bool
	entries []TraceEntry
}

func newTracer(vertices []graph.VertexID) *tracer {
	if len(vertices) == 0 {
		return nil
	}
	t := &tracer{want: make(map[graph.VertexID]bool, len(vertices))}
	for _, v := range vertices {
		t.want[v] = true
	}
	return t
}

// record appends an entry if v is traced. Safe on a nil tracer.
func (t *tracer) record(cycle uint64, v graph.VertexID, kind TraceKind, delta, aux float64) {
	if t == nil || !t.want[v] {
		return
	}
	t.entries = append(t.entries, TraceEntry{Cycle: cycle, Vertex: v, Kind: kind, Delta: delta, Aux: aux})
}
