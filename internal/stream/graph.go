package stream

import (
	"errors"
	"fmt"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// Change is one applied mutation epoch: the exact edges added and removed
// when a Graph moved to Epoch. Added is the normalised, de-duplicated
// batch and Removed the edges actually deleted (user deletes and window
// expirations alike), so ApplyExact of the record against the Epoch-1
// state reproduces the Epoch state. It is the one record handed to
// mutation hooks, appended to the write-ahead log and shipped between
// replicas, in this JSON form.
type Change struct {
	Epoch uint64 `json:"epoch"`
	// At is the ingest time in Unix nanoseconds; replay re-applies edges
	// with it so sliding-window expiry stays coherent. 0 is the zero time
	// (permanent edges).
	At      int64        `json:"ts"`
	Added   []graph.Edge `json:"added,omitempty"`
	Removed []graph.Edge `json:"removed,omitempty"`
}

// Time returns At as a time.Time.
func (c Change) Time() time.Time {
	if c.At == 0 {
		return time.Time{}
	}
	return time.Unix(0, c.At)
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

// Graph is one versioned mutable graph: the timestamped live-edge Log,
// the immutable CSR materialised from it, the epoch counting applied
// changes, and a bounded history of recent changes — what lets a fixed
// point converged several epochs ago be warm-restarted (Since + Restart)
// instead of re-solved. The vertex set is fixed at construction. Every
// epoch-advancing path — live batches, window expiry, logged-record
// replay — goes through it, so the serving tier, the write-ahead log and
// the differential test harness all run the same state machine.
//
// A Graph is not concurrency-safe; callers serialise through their own
// lock. The CSRs it hands out are immutable and stay valid after later
// changes.
type Graph struct {
	log     *Log
	cur     *graph.CSR
	epoch   uint64
	histMax int
	history []step
}

// NewGraph builds a Graph at epoch 0 over base, retaining the last
// histMax changes for Since. The base edges are permanent: window expiry
// never removes them (deletes do).
func NewGraph(base *graph.CSR, histMax int) *Graph {
	return &Graph{log: NewLog(base.Edges()), cur: base, histMax: histMax}
}

// CSR returns the current materialised graph.
func (g *Graph) CSR() *graph.CSR { return g.cur }

// Epoch returns the number of changes applied (0 = the base graph).
func (g *Graph) Epoch() uint64 { return g.epoch }

// inRange rejects edges referencing vertices outside the fixed vertex set.
func (g *Graph) inRange(batches ...[]graph.Edge) error {
	n := g.cur.NumVertices()
	for _, batch := range batches {
		for _, e := range batch {
			if int(e.Src) >= n || int(e.Dst) >= n {
				return fmt.Errorf("edge %d->%d outside vertex set (n=%d)", e.Src, e.Dst, n)
			}
		}
	}
	return nil
}

// Apply applies one mutation batch as one epoch: insert ins (weights
// normalised to the graph's weight mode, exact duplicates within the
// batch dropped, timestamped at), then delete every live edge matching a
// (Src, Dst) pair in dels — so a batch that inserts and deletes the same
// edge nets to a delete. An edge outside the vertex set rejects the whole
// batch before anything is touched. skipped counts in-batch duplicate
// inserts, missed the delete pairs that matched no live edge. A batch
// with no effect (all-duplicate inserts, all-miss deletes) burns no
// epoch and returns the zero Change.
func (g *Graph) Apply(ins, dels []graph.Edge, at time.Time) (ch Change, skipped, missed int, err error) {
	if err := g.inRange(ins, dels); err != nil {
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

// Expire ages out every timestamped edge older than horizon at time now
// as one epoch; nothing aged out returns the zero Change.
func (g *Graph) Expire(now time.Time, horizon time.Duration) (Change, error) {
	removed := g.log.Expire(now, horizon)
	if len(removed) == 0 {
		return Change{}, nil
	}
	return g.advance(nil, removed, now)
}

// ApplyExact replays one logged Change: a record at or below the current
// epoch is skipped (the zero Change: already incorporated), a record at
// exactly epoch+1 is applied and returned, anything else fails with
// ErrEpochGap. Replay removes exactly the edges the record names
// (Log.RemoveExact) rather than matching by endpoint like a live delete,
// which could take out extra edges sharing endpoints with an expired one.
// The Graph keeps the record's slices.
func (g *Graph) ApplyExact(ch Change) (Change, error) {
	if ch.Epoch <= g.epoch {
		return Change{}, nil
	}
	if ch.Epoch != g.epoch+1 {
		return Change{}, fmt.Errorf("%w: record epoch %d, graph epoch %d", ErrEpochGap, ch.Epoch, g.epoch)
	}
	if err := g.inRange(ch.Added, ch.Removed); err != nil {
		return Change{}, err
	}
	added := normalizeWeights(ch.Added, g.cur.Weighted())
	g.log.Append(added, ch.Time())
	g.log.RemoveExact(ch.Removed)
	return g.advance(added, ch.Removed, ch.Time())
}

// advance materialises the already-updated log into a fresh CSR, bumps
// the epoch and records the change in the bounded history.
func (g *Graph) advance(added, removed []graph.Edge, at time.Time) (Change, error) {
	ng, err := graph.FromEdges(g.cur.NumVertices(), g.log.Edges(), g.cur.Weighted())
	if err != nil {
		return Change{}, err
	}
	ch := Change{Epoch: g.epoch + 1, Added: added, Removed: removed}
	if !at.IsZero() {
		ch.At = at.UnixNano()
	}
	g.history = append(g.history, step{Change: ch, base: g.cur})
	if len(g.history) > g.histMax {
		g.history = g.history[len(g.history)-g.histMax:]
	}
	g.cur, g.epoch = ng, ch.Epoch
	return ch, nil
}

// Reset adopts a snapshotted edge set at the given epoch, replacing log
// and graph and clearing the history (restored edges are permanent —
// their ingest times are not carried over). It rejects a different vertex
// count or weight mode, and an epoch below the current one with ErrStale.
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
	g.log, g.cur, g.epoch, g.history = NewLog(edges), ng, epoch, nil
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
	if len(ins) == 0 {
		return nil
	}
	seen := make(map[graph.Edge]bool, len(ins))
	out := make([]graph.Edge, 0, len(ins))
	for _, e := range ins {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
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
