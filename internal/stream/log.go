package stream

import (
	"time"

	"graphpulse/internal/graph"
)

// TimedEdge is one edge and its ingest time.
type TimedEdge struct {
	Edge graph.Edge
	At   time.Time
}

// Log is an append-only list of timed edges, not concurrency-safe, kept for
// the benchmark's append-cost probe (stream.log_append_ns_per_edge).
type Log struct {
	edges []TimedEdge
}

// NewLog builds a log whose initial entries are base, at the zero time.
func NewLog(base []graph.Edge) *Log {
	l := &Log{edges: make([]TimedEdge, len(base))}
	for i, e := range base {
		l.edges[i] = TimedEdge{Edge: e}
	}
	return l
}

// Append ingests a batch at the given timestamp.
func (l *Log) Append(batch []graph.Edge, at time.Time) {
	for _, e := range batch {
		l.edges = append(l.edges, TimedEdge{Edge: e, At: at})
	}
}
