package stream

import (
	"fmt"
	"slices"
	"time"

	"graphpulse/internal/graph"
)

// refGraph is the log-based Graph the splice replaced, kept as the
// differential reference: the live edge set is a Log in ingest order, and
// every epoch rebuilds the whole CSR from it with graph.FromEdges.
type refGraph struct {
	log   *Log
	cur   *graph.CSR
	epoch uint64
}

func newRefGraph(base *graph.CSR) *refGraph {
	return &refGraph{log: NewLog(base.Edges()), cur: base}
}

func (g *refGraph) CSR() *graph.CSR { return g.cur }

func (g *refGraph) Apply(ins, dels []graph.Edge) (ch Change, skipped, missed int, err error) {
	if err := checkBatch(g.cur, ins, dels); err != nil {
		return Change{}, 0, 0, err
	}
	added := dedupEdges(normalizeWeights(ins, g.cur.Weighted()))
	g.log.Append(added, time.Time{})
	removed, missed := g.log.Remove(dels)
	skipped = len(ins) - len(added)
	if len(added) == 0 && len(removed) == 0 {
		return Change{}, skipped, missed, nil
	}
	ch, err = g.advance(added, removed)
	return ch, skipped, missed, err
}

func (g *refGraph) ApplyExact(ch Change) (Change, error) {
	if ch.Epoch != g.epoch+1 {
		return Change{}, fmt.Errorf("%w: record epoch %d, graph epoch %d", ErrEpochGap, ch.Epoch, g.epoch)
	}
	added := normalizeWeights(ch.Added, g.cur.Weighted())
	g.log.Append(added, time.Time{})
	return g.advance(added, g.log.RemoveExact(ch.Removed))
}

func (g *refGraph) advance(added, removed []graph.Edge) (Change, error) {
	ng, err := graph.FromEdges(g.cur.NumVertices(), g.log.Edges(), g.cur.Weighted())
	if err != nil {
		return Change{}, err
	}
	g.cur, g.epoch = ng, g.epoch+1
	return Change{Epoch: g.epoch, Added: added, Removed: removed}, nil
}

// Len returns the number of live edges.
func (l *Log) Len() int { return len(l.edges) }

// Remove deletes live edges by endpoint: each (Src, Dst) in batch removes
// every live edge with those endpoints, regardless of weight. It returns
// the edges actually removed, in log order, and the count of distinct
// batch pairs that matched nothing.
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
// the same (Src, Dst, Weight): the first copy in log order. It returns the
// edges removed; entries matching no live edge are ignored.
func (l *Log) RemoveExact(batch []graph.Edge) (removed []graph.Edge) {
	for _, e := range batch {
		if i := slices.IndexFunc(l.edges, func(te TimedEdge) bool { return te.Edge == e }); i >= 0 {
			removed = append(removed, e)
			l.edges = slices.Delete(l.edges, i, i+1)
		}
	}
	return removed
}

// Edges returns a copy of the live edge set in ingest order.
func (l *Log) Edges() []graph.Edge {
	out := make([]graph.Edge, len(l.edges))
	for i, te := range l.edges {
		out[i] = te.Edge
	}
	return out
}
