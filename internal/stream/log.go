package stream

import (
	"time"

	"graphpulse/internal/graph"
)

// TimedEdge is one live edge with its ingest timestamp. A zero At marks a
// permanent edge (part of the loaded base graph): user deletes remove it,
// window expiry never does.
type TimedEdge struct {
	Edge graph.Edge
	At   time.Time
}

// Log is the live edge set of one streaming graph, in ingest order, with
// per-edge timestamps driving the sliding-window mode. It is not
// concurrency-safe; callers serialize through their own write lock.
type Log struct {
	edges []TimedEdge
}

// NewLog builds a log whose initial entries are base, marked permanent.
func NewLog(base []graph.Edge) *Log {
	l := &Log{edges: make([]TimedEdge, len(base))}
	for i, e := range base {
		l.edges[i] = TimedEdge{Edge: e}
	}
	return l
}

// Len returns the number of live edges.
func (l *Log) Len() int { return len(l.edges) }

// Append ingests a batch at the given timestamp.
func (l *Log) Append(batch []graph.Edge, at time.Time) {
	for _, e := range batch {
		l.edges = append(l.edges, TimedEdge{Edge: e, At: at})
	}
}

// Remove deletes live edges by endpoint: each (Src, Dst) in batch removes
// every live edge with those endpoints, regardless of weight or ingest
// time (permanent base edges included). It returns the edges actually
// removed and the count of batch entries that matched nothing. Duplicate
// (Src, Dst) pairs within one batch: the first removes everything, the
// rest miss.
func (l *Log) Remove(batch []graph.Edge) (removed []graph.Edge, missed int) {
	if len(batch) == 0 {
		return nil, 0
	}
	type key struct{ src, dst graph.VertexID }
	want := make(map[key]bool, len(batch))
	hit := make(map[key]bool, len(batch))
	for _, e := range batch {
		want[key{e.Src, e.Dst}] = true
	}
	kept := l.edges[:0]
	for _, te := range l.edges {
		k := key{te.Edge.Src, te.Edge.Dst}
		if want[k] {
			removed = append(removed, te.Edge)
			hit[k] = true
			continue
		}
		kept = append(kept, te)
	}
	l.edges = kept
	for _, e := range batch {
		k := key{e.Src, e.Dst}
		if !hit[k] {
			missed++
			hit[k] = true // count each distinct missing pair once
		}
	}
	return removed, missed
}

// RemoveExact removes, for each batch entry, exactly one live edge with
// the same (Src, Dst, Weight) — oldest first — and returns how many were
// removed. This is the exact-multiset removal WAL replay needs: the
// replayed record already names the removed edges, so endpoint-matching
// removal (Remove) would take out extra edges sharing endpoints with an
// expired or deleted one. Entries matching no live edge are ignored.
func (l *Log) RemoveExact(batch []graph.Edge) int {
	if len(batch) == 0 {
		return 0
	}
	need := make(map[graph.Edge]int, len(batch))
	for _, e := range batch {
		need[e]++
	}
	removed := 0
	kept := l.edges[:0]
	for _, te := range l.edges {
		if need[te.Edge] > 0 {
			need[te.Edge]--
			removed++
			continue
		}
		kept = append(kept, te)
	}
	l.edges = kept
	return removed
}

// Expire removes every timestamped edge older than horizon at time now
// and returns the expired edges (nil when nothing aged out). Permanent
// base edges never expire.
func (l *Log) Expire(now time.Time, horizon time.Duration) []graph.Edge {
	if horizon <= 0 {
		return nil
	}
	cutoff := now.Add(-horizon)
	var expired []graph.Edge
	kept := l.edges[:0]
	for _, te := range l.edges {
		if !te.At.IsZero() && te.At.Before(cutoff) {
			expired = append(expired, te.Edge)
			continue
		}
		kept = append(kept, te)
	}
	l.edges = kept
	return expired
}

// Edges returns a copy of the live edge set in ingest order, ready for
// graph.FromEdges.
func (l *Log) Edges() []graph.Edge {
	out := make([]graph.Edge, len(l.edges))
	for i, te := range l.edges {
		out[i] = te.Edge
	}
	return out
}

// normalizeWeights reconciles an insertion batch with the graph's weight
// mode: materializing an unweighted CSR drops edge weights (every edge
// costs 1), so warm-start seeding must see weight 1 too, or the seeded
// corrections diverge from the graph the solver actually runs on. Returns
// batch unchanged for weighted graphs; otherwise a copy with unit
// weights.
func normalizeWeights(batch []graph.Edge, weighted bool) []graph.Edge {
	if weighted || len(batch) == 0 {
		return batch
	}
	out := make([]graph.Edge, len(batch))
	for i, e := range batch {
		e.Weight = 1
		out[i] = e
	}
	return out
}
