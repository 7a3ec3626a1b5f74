package stream

import (
	"fmt"
	"time"

	"graphpulse/internal/graph"
)

// refGraph is the log-based Graph the splice replaced, kept as the
// differential reference: the live edge set is a timestamped Log in ingest
// order, and every epoch rebuilds the whole CSR from it with
// graph.FromEdges. Its one change from the original is RemoveExact's copy
// choice, which Graph.ApplyExact fixed.
type refGraph struct {
	log   *Log
	cur   *graph.CSR
	epoch uint64
}

func newRefGraph(base *graph.CSR) *refGraph {
	return &refGraph{log: NewLog(base.Edges()), cur: base}
}

func (g *refGraph) CSR() *graph.CSR { return g.cur }

func (g *refGraph) Apply(ins, dels []graph.Edge, at time.Time) (ch Change, skipped, missed int, err error) {
	if err := inRange(g.cur.NumVertices(), ins, dels); err != nil {
		return Change{}, 0, 0, err
	}
	added := dedupEdges(normalizeWeights(ins, g.cur.Weighted()))
	g.log.Append(added, at)
	removed, missed := g.log.Remove(dels)
	skipped = len(ins) - len(added)
	if len(added) == 0 && len(removed) == 0 {
		return Change{}, skipped, missed, nil
	}
	ch, err = g.advance(added, removed, at)
	return ch, skipped, missed, err
}

func (g *refGraph) Expire(now time.Time, horizon time.Duration) (Change, error) {
	removed := g.log.Expire(now, horizon)
	if len(removed) == 0 {
		return Change{}, nil
	}
	return g.advance(nil, removed, now)
}

func (g *refGraph) ApplyExact(ch Change) (Change, error) {
	if ch.Epoch != g.epoch+1 {
		return Change{}, fmt.Errorf("%w: record epoch %d, graph epoch %d", ErrEpochGap, ch.Epoch, g.epoch)
	}
	at := time.Time{}
	if ch.At != 0 {
		at = time.Unix(0, ch.At)
	}
	added := normalizeWeights(ch.Added, g.cur.Weighted())
	g.log.Append(added, at)
	return g.advance(added, g.log.RemoveExact(ch.Removed), at)
}

func (g *refGraph) advance(added, removed []graph.Edge, at time.Time) (Change, error) {
	ng, err := graph.FromEdges(g.cur.NumVertices(), g.log.Edges(), g.cur.Weighted())
	if err != nil {
		return Change{}, err
	}
	g.cur, g.epoch = ng, g.epoch+1
	return Change{Epoch: g.epoch, At: unixNano(at), Added: added, Removed: removed}, nil
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Len returns the number of live edges.
func (l *Log) Len() int { return len(l.edges) }

// Remove deletes live edges by endpoint: each (Src, Dst) in batch removes
// every live edge with those endpoints, regardless of weight or ingest
// time (permanent base edges included). It returns the edges actually
// removed, in log order, and the count of distinct batch pairs that
// matched nothing.
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
// the same (Src, Dst, Weight): the timed copy with the oldest ingest time,
// else the first permanent copy in log order. It returns the edges
// removed; entries matching no live edge are ignored.
func (l *Log) RemoveExact(batch []graph.Edge) (removed []graph.Edge) {
	for _, e := range batch {
		pick := -1
		for i, te := range l.edges {
			if te.Edge != e {
				continue
			}
			if pick < 0 || !te.At.IsZero() && (l.edges[pick].At.IsZero() || te.At.Before(l.edges[pick].At)) {
				pick = i
			}
		}
		if pick >= 0 {
			removed = append(removed, e)
			l.edges = append(l.edges[:pick], l.edges[pick+1:]...)
		}
	}
	return removed
}

// Expire removes every timestamped edge older than horizon at time now
// and returns the expired edges (nil when nothing aged out). Permanent
// edges never expire.
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

// Edges returns a copy of the live edge set in ingest order.
func (l *Log) Edges() []graph.Edge {
	out := make([]graph.Edge, len(l.edges))
	for i, te := range l.edges {
		out[i] = te.Edge
	}
	return out
}
