package stream

import (
	"errors"
	"fmt"
	"slices"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// Change is one applied mutation epoch: the exact edges added and removed
// when a Graph moved to Epoch. Added is the normalised, de-duplicated
// batch and Removed the edges actually deleted (in CSR order; consumers
// treat it as a multiset), so ApplyExact of the record against the Epoch-1
// state reproduces the Epoch state. It is the one record handed to
// mutation hooks, appended to the write-ahead log and shipped between
// replicas, in this JSON form.
type Change struct {
	Epoch   uint64       `json:"epoch"`
	Added   []graph.Edge `json:"added,omitempty"`
	Removed []graph.Edge `json:"removed,omitempty"`
}

// ErrEpochGap is returned by ApplyExact when a record does not extend the
// graph's epoch by exactly one — the record sequence has a hole (typically
// a snapshot adoption jumped the epoch past a log's coverage), so replay
// must stop.
var ErrEpochGap = errors.New("stream: record does not extend the graph epoch")

// ErrStale is returned by Reset when the adopted state is older than the
// graph's: the local state is already newer, so adopting would rewind it.
var ErrStale = errors.New("stream: snapshot is older than resident state")

// step is one history entry: a Change and the graph it was applied to.
type step struct {
	Change
	base graph.Adjacency
}

// Graph is one versioned mutable graph: the immutable graph that is the
// live edge set, the epoch counting applied changes, and a bounded history
// of recent changes — what lets a fixed point converged several epochs ago
// be warm-restarted (Since + Restart) instead of re-solved. The vertex set
// is fixed at construction. Every epoch-advancing path — live batches,
// logged-record replay — goes through it, so the serving tier, the
// write-ahead log and the differential test harness all run the same state
// machine.
//
// Each epoch is a graph.Paged spliced from the one before: it rebuilds
// only the pages that hold a touched source and shares the rest, so an
// epoch and the history steps cost O(batch), not O(graph). The first
// epoch's untouched pages alias the registered *graph.CSR, which stays
// epoch 0.
//
// A Graph is not concurrency-safe; callers serialise through their own
// lock. The graphs it hands out are immutable and stay valid after later
// changes.
type Graph struct {
	cur     graph.Adjacency // a *graph.CSR (epoch 0, a Reset, or materialised by CSR) or a *graph.Paged
	epoch   uint64
	histMax int
	history []step
}

// NewGraph builds a Graph at epoch 0 over base, retaining the last
// histMax changes for Since.
func NewGraph(base *graph.CSR, histMax int) *Graph {
	return &Graph{cur: base, histMax: histMax}
}

// Adjacency returns the current graph.
func (g *Graph) Adjacency() graph.Adjacency { return g.cur }

// CSR returns the current graph as a CSR. A paged epoch is materialised
// once, in O(graph), and the copy becomes the epoch's graph: later calls
// return the same *graph.CSR, and the next epoch's untouched pages alias
// it. Only callers that need CSR arrays (the Replayer, whose engines
// include the cycle simulators) call it; it moves no epoch but replaces
// the current graph, so it needs the same exclusion as Apply.
func (g *Graph) CSR() *graph.CSR {
	if p, ok := g.cur.(*graph.Paged); ok {
		g.cur = p.CSR()
	}
	return g.cur.(*graph.CSR)
}

// Epoch returns the number of changes applied (0 = the base graph).
func (g *Graph) Epoch() uint64 { return g.epoch }

// checkBatch rejects edges referencing vertices outside g's vertex set,
// and, on a weighted graph, inserts with a negative or NaN weight: the
// min-plus algorithms never converge over a negative cycle.
func checkBatch(g graph.Adjacency, ins, dels []graph.Edge) error {
	n := g.NumVertices()
	for _, batch := range [][]graph.Edge{ins, dels} {
		for _, e := range batch {
			if int(e.Src) >= n || int(e.Dst) >= n {
				return fmt.Errorf("edge %d->%d outside vertex set (n=%d)", e.Src, e.Dst, n)
			}
		}
	}
	if g.Weighted() {
		for _, e := range ins {
			if !(e.Weight >= 0) {
				return fmt.Errorf("edge %d->%d has weight %v; weights must be non-negative", e.Src, e.Dst, e.Weight)
			}
		}
	}
	return nil
}

// Apply applies one mutation batch as one epoch: insert ins (weights
// normalised to the graph's weight mode, exact duplicates within the
// batch dropped), then delete every live edge matching a (Src, Dst) pair
// in dels — so a batch that inserts and deletes the same edge nets to a
// delete. An edge outside the vertex set, or a negative or NaN insert
// weight on a weighted graph, rejects the whole batch before anything is
// touched. skipped counts in-batch duplicate inserts, missed the distinct
// delete pairs that matched no live edge. A batch with no effect
// (all-duplicate inserts, all-miss deletes) burns no epoch and returns the
// zero Change.
func (g *Graph) Apply(ins, dels []graph.Edge) (ch Change, skipped, missed int, err error) {
	if err := checkBatch(g.cur, ins, dels); err != nil {
		return Change{}, 0, 0, err
	}
	added := dedupEdges(normalizeWeights(ins, g.cur.Weighted()))
	skipped = len(ins) - len(added)
	want, hit := make(map[[2]graph.VertexID]bool, len(dels)), make(map[[2]graph.VertexID]bool, len(dels))
	for _, e := range dels {
		want[[2]graph.VertexID{e.Src, e.Dst}] = true
	}
	edits, removed := g.edit(dels, added, func(e graph.Edge) bool {
		k := [2]graph.VertexID{e.Src, e.Dst}
		if want[k] {
			hit[k] = true
		}
		return want[k]
	})
	missed = len(want) - len(hit)
	if len(added) == 0 && len(removed) == 0 {
		return Change{}, skipped, missed, nil
	}
	return g.advance(Change{Added: added, Removed: removed}, edits), skipped, missed, nil
}

// ApplyExact replays one logged Change: a record at or below the current
// epoch is skipped (the zero Change: already incorporated), a record at
// exactly epoch+1 is applied, anything else fails with ErrEpochGap. Each
// entry of Removed removes one live edge with the same (Src, Dst, Weight),
// not every edge with its endpoints as a live delete would: the first
// remaining copy in row order, the record's Added after the current row.
// A live delete removes every copy, so replaying the records rebuilds the
// live graph row for row. The returned Change keeps the record's Added.
func (g *Graph) ApplyExact(ch Change) (Change, error) {
	if ch.Epoch <= g.epoch {
		return Change{}, nil
	}
	if ch.Epoch != g.epoch+1 {
		return Change{}, fmt.Errorf("%w: record epoch %d, graph epoch %d", ErrEpochGap, ch.Epoch, g.epoch)
	}
	if err := checkBatch(g.cur, ch.Added, ch.Removed); err != nil {
		return Change{}, err
	}
	added := normalizeWeights(ch.Added, g.cur.Weighted())
	need := make(map[graph.Edge]int, len(ch.Removed))
	for _, e := range ch.Removed {
		need[e]++
	}
	edits, removed := g.edit(ch.Removed, added, func(e graph.Edge) bool {
		if need[e] == 0 {
			return false
		}
		need[e]--
		return true
	})
	return g.advance(Change{Added: added, Removed: removed}, edits), nil
}

// edit visits, for each distinct source of keys and add in ascending
// order, its current row and then its edges in add, in batch order, and
// drops each edge drop accepts. It returns the row edits that make the
// next epoch, each row keeping its survivors in order and then appending
// its surviving additions, and the dropped edges in visit order. No other
// row is read.
func (g *Graph) edit(keys, add []graph.Edge, drop func(graph.Edge) bool) (edits []graph.RowEdit, removed []graph.Edge) {
	for _, s := range sources(keys, add) {
		ed := graph.RowEdit{Src: s}
		dst, wt := g.cur.Row(s)
		for i, d := range dst {
			e := graph.Edge{Src: s, Dst: d, Weight: 1}
			if wt != nil {
				e.Weight = wt[i]
			}
			if drop(e) {
				ed.Drop = append(ed.Drop, i)
				removed = append(removed, e)
			}
		}
		for _, e := range add {
			if e.Src != s {
				continue
			}
			if drop(e) {
				removed = append(removed, e)
			} else {
				ed.Add = append(ed.Add, e)
			}
		}
		if len(ed.Drop) > 0 || len(ed.Add) > 0 {
			edits = append(edits, ed)
		}
	}
	return edits, removed
}

// sources returns the distinct sources of the edges in batches, ascending.
func sources(batches ...[]graph.Edge) []graph.VertexID {
	var srcs []graph.VertexID
	for _, batch := range batches {
		for _, e := range batch {
			srcs = append(srcs, e.Src)
		}
	}
	slices.Sort(srcs)
	return slices.Compact(srcs)
}

// advance moves to epoch+1 by splicing edits into the current graph (a
// CSR's pages alias its arrays) and records ch, stamped with that epoch,
// in the bounded history.
func (g *Graph) advance(ch Change, edits []graph.RowEdit) Change {
	cur, ok := g.cur.(*graph.Paged)
	if !ok {
		cur = g.cur.(*graph.CSR).Paged()
	}
	ch.Epoch = g.epoch + 1
	g.history = append(g.history, step{Change: ch, base: g.cur})
	if over := len(g.history) - g.histMax; over > 0 {
		g.history = slices.Delete(g.history, 0, over)
	}
	g.cur, g.epoch = cur.Splice(edits), ch.Epoch
	return ch
}

// Reset adopts a snapshotted edge set at the given epoch, replacing graph
// and history. It rejects a different vertex count or weight mode, and an
// epoch below the current one with ErrStale.
func (g *Graph) Reset(numVertices int, weighted bool, edges []graph.Edge, epoch uint64) error {
	if numVertices != g.cur.NumVertices() {
		return fmt.Errorf("stream: snapshot has %d vertices, graph has %d", numVertices, g.cur.NumVertices())
	}
	if weighted != g.cur.Weighted() {
		return fmt.Errorf("stream: snapshot weight mode %v, graph is %v", weighted, g.cur.Weighted())
	}
	if epoch < g.epoch {
		return fmt.Errorf("%w: snapshot epoch %d, resident epoch %d", ErrStale, epoch, g.epoch)
	}
	ng, err := graph.FromEdges(numVertices, edges, weighted)
	if err != nil {
		return fmt.Errorf("stream: rebuild from snapshot: %w", err)
	}
	g.cur, g.epoch, g.history = ng, epoch, nil
	return nil
}

// Since returns what Restart needs to carry a fixed point converged at
// fromEpoch to the current epoch: the graph as it stood at fromEpoch and
// every edge added and removed since, in order. ok is false when
// fromEpoch is not in the past or the history no longer reaches back that
// far — the caller cold-solves.
func (g *Graph) Since(fromEpoch uint64) (base graph.Adjacency, added, removed []graph.Edge, ok bool) {
	if fromEpoch >= g.epoch || g.epoch-fromEpoch > uint64(len(g.history)) {
		return nil, nil, nil, false
	}
	// The history holds consecutive epochs ending at the current one.
	steps := g.history[len(g.history)-int(g.epoch-fromEpoch):]
	for _, s := range steps {
		added = append(added, s.Added...)
		removed = append(removed, s.Removed...)
	}
	return steps[0].base, added, removed, true
}

// dedupEdges drops exact (Src, Dst, Weight) duplicates within one insert
// batch. Re-inserting an edge that is already live in the graph is
// legitimate (multigraphs are supported); double-applying the same edge
// from one request is not.
func dedupEdges(ins []graph.Edge) []graph.Edge {
	seen := make(map[graph.Edge]bool, len(ins))
	return slices.DeleteFunc(slices.Clone(ins), func(e graph.Edge) bool {
		dup := seen[e]
		seen[e] = true
		return dup
	})
}

// normalizeWeights reconciles an insertion batch with the graph's weight
// mode: an unweighted CSR drops edge weights (every edge costs 1), so
// warm-start seeding must see weight 1 too, or the seeded corrections
// diverge from the graph the solver actually runs on. Returns batch
// unchanged for weighted graphs; otherwise a copy with unit weights.
func normalizeWeights(batch []graph.Edge, weighted bool) []graph.Edge {
	if weighted || len(batch) == 0 {
		return batch
	}
	out := slices.Clone(batch)
	for i := range out {
		out[i].Weight = 1
	}
	return out
}

// Mode names how a fixed point was carried across a change; the values
// are the serving tier's wire vocabulary.
type Mode string

const (
	// Warm: insertion seeding — the change only added edges and the
	// algorithm offers correction events for them.
	Warm Mode = "warm"
	// Cone: selective re-initialisation of the dependency cone.
	Cone Mode = "cone"
	// Cold: solve from scratch.
	Cold Mode = "cold"
)

// Restart is the warm-restart decision: given state converged on base and
// the (added, removed) change that turned base into cur (from Since), it
// returns the algorithm to run on cur and how it restarts.
//
//   - Nothing removed and alg implements algorithms.InsertionSeeder: seed
//     the corrections the new edges carry (Warm). Other algorithms solve
//     Cold.
//   - Anything removed: PlanRestart's dependency cone (Cone), or Cold
//     when the cone exceeds maxConeFrac of the vertices — the replay
//     fallback, the only way a change with removals restarts Cold short
//     of malformed input.
//
// It never writes state and takes no lock: callers run it on immutable
// graph snapshots outside any write path. The warm path reads state in
// place (the solver copies it once); the cone path writes a copy.
func Restart(alg algorithms.Algorithm, base, cur graph.Adjacency, added, removed []graph.Edge, state []float64, maxConeFrac float64) (algorithms.Algorithm, Mode) {
	if len(removed) == 0 {
		seeder, ok := alg.(algorithms.InsertionSeeder)
		if !ok {
			return alg, Cold
		}
		return algorithms.WarmStart(alg, state, seeder.SeedInsertions(base, added, state)), Warm
	}
	plan, err := PlanRestart(alg, cur, added, removed, state, maxConeFrac)
	if err != nil || plan.Replay {
		return alg, Cold
	}
	return algorithms.WarmStart(alg, plan.State, plan.Seeds), Cone
}
