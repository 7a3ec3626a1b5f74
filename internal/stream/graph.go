package stream

import (
	"cmp"
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
	base *graph.CSR
}

// Graph is one versioned mutable graph: the immutable CSR that is the live
// edge set, the epoch counting applied changes, and a bounded history of
// recent changes — what lets a fixed point converged several epochs ago be
// warm-restarted (Since + Restart) instead of re-solved. The vertex set is
// fixed at construction. Every epoch-advancing path — live batches,
// logged-record replay — goes through it, so the serving tier, the
// write-ahead log and the differential test harness all run the same state
// machine. Each epoch splices the next CSR from the current one instead of
// rebuilding it.
//
// A Graph is not concurrency-safe; callers serialise through their own
// lock. The CSRs it hands out are immutable and stay valid after later
// changes.
type Graph struct {
	cur     *graph.CSR
	epoch   uint64
	histMax int
	history []step
}

// NewGraph builds a Graph at epoch 0 over base, retaining the last
// histMax changes for Since.
func NewGraph(base *graph.CSR, histMax int) *Graph {
	return &Graph{cur: base, histMax: histMax}
}

// CSR returns the current materialised graph.
func (g *Graph) CSR() *graph.CSR { return g.cur }

// Epoch returns the number of changes applied (0 = the base graph).
func (g *Graph) Epoch() uint64 { return g.epoch }

// checkBatch rejects edges referencing vertices outside g's vertex set,
// and, on a weighted graph, inserts with a negative or NaN weight: the
// min-plus algorithms never converge over a negative cycle.
func checkBatch(g *graph.CSR, ins, dels []graph.Edge) error {
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
	var drop []int
	g.scanRows(dels, added, func(pos int, e graph.Edge) {
		if k := [2]graph.VertexID{e.Src, e.Dst}; want[k] {
			hit[k] = true
			drop = append(drop, pos)
		}
	})
	missed = len(want) - len(hit)
	if len(added) == 0 && len(drop) == 0 {
		return Change{}, skipped, missed, nil
	}
	return g.advance(added, drop), skipped, missed, nil
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
	var drop []int
	g.scanRows(ch.Removed, added, func(pos int, e graph.Edge) {
		if need[e] > 0 {
			need[e]--
			drop = append(drop, pos)
		}
	})
	return g.advance(added, drop), nil
}

// scanRows visits, for each distinct source of keys in ascending order,
// its current row and then its edges in add, in order, with each edge's
// position: its index into the current Dst, or NumEdges()+j for add[j].
// No other row is read.
func (g *Graph) scanRows(keys, add []graph.Edge, visit func(pos int, e graph.Edge)) {
	m := g.cur.NumEdges()
	for _, s := range sources(keys) {
		for i := g.cur.RowPtr[s]; i < g.cur.RowPtr[s+1]; i++ {
			visit(int(i), graph.Edge{Src: s, Dst: g.cur.Dst[i], Weight: g.cur.EdgeWeight(i)})
		}
		for j, e := range add {
			if e.Src == s {
				visit(m+j, e)
			}
		}
	}
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

// advance moves to the next epoch. Its CSR, freshly allocated as readers
// may hold the current one, is the current one plus add minus the
// positions in drop (numbered as scanRows does): runs of untouched rows
// are bulk-copied with their row pointers shifted, and a touched row keeps
// its surviving edges in order, then appends its surviving new ones in
// batch order. The Change, whose Removed are the dropped edges in CSR
// order, joins the bounded history.
func (g *Graph) advance(add []graph.Edge, drop []int) Change {
	cur, m, n := g.cur, g.cur.NumEdges(), g.cur.NumVertices()
	size := m + len(add) - len(drop)
	ch := Change{Epoch: g.epoch + 1, Added: add}
	slices.Sort(drop)
	k, _ := slices.BinarySearch(drop, m)
	drop, dropAdd := drop[:k], drop[k:]
	order := make([]int, len(add)) // positions of add grouped by source, batch order within one
	for j := range order {
		order[j] = m + j
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(add[a-m].Src, add[b-m].Src) })

	next := &graph.CSR{RowPtr: make([]uint64, n+1), Dst: make([]graph.VertexID, size)}
	if cur.Weighted() {
		next.Weight = make([]float32, size)
	}
	// cur's edges from span on are pending; they land in next from out on.
	span, out := 0, 0
	flush := func(end int) {
		copy(next.Dst[out:], cur.Dst[span:end])
		if next.Weight != nil {
			copy(next.Weight[out:], cur.Weight[span:end])
		}
		out, span = out+end-span, end
	}
	for v := 0; v < n; v++ {
		hi := int(cur.RowPtr[v+1])
		next.RowPtr[v] = uint64(out + int(cur.RowPtr[v]) - span)
		for ; len(drop) > 0 && drop[0] < hi; drop = drop[1:] {
			i := drop[0]
			flush(i)
			span = i + 1
			ch.Removed = append(ch.Removed, graph.Edge{Src: graph.VertexID(v), Dst: cur.Dst[i], Weight: cur.EdgeWeight(uint64(i))})
		}
		for ; len(order) > 0 && int(add[order[0]-m].Src) == v; order = order[1:] {
			flush(hi)
			e := add[order[0]-m]
			if slices.Contains(dropAdd, order[0]) {
				ch.Removed = append(ch.Removed, e)
				continue
			}
			next.Dst[out] = e.Dst
			if next.Weight != nil {
				next.Weight[out] = e.Weight
			}
			out++
		}
	}
	flush(m)
	next.RowPtr[n] = uint64(out)
	g.history = append(g.history, step{Change: ch, base: cur})
	if len(g.history) > g.histMax {
		g.history = g.history[len(g.history)-g.histMax:]
	}
	g.cur, g.epoch = next, ch.Epoch
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
func (g *Graph) Since(fromEpoch uint64) (base *graph.CSR, added, removed []graph.Edge, ok bool) {
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
// It never touches state and takes no lock: callers run it on immutable
// CSR snapshots outside any write path.
func Restart(alg algorithms.Algorithm, base, cur *graph.CSR, added, removed []graph.Edge, state []float64, maxConeFrac float64) (algorithms.Algorithm, Mode) {
	if len(removed) == 0 {
		seeder, ok := alg.(algorithms.InsertionSeeder)
		if !ok {
			return alg, Cold
		}
		warm := append([]float64(nil), state...)
		return algorithms.WarmStart(alg, warm, seeder.SeedInsertions(base, added, warm)), Warm
	}
	plan, err := PlanRestart(alg, cur, added, removed, state, maxConeFrac)
	if err != nil || plan.Replay {
		return alg, Cold
	}
	return algorithms.WarmStart(alg, plan.State, plan.Seeds), Cone
}
