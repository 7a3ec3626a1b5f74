// Package stream is the mutation side of the streaming-graph story: it
// turns arbitrary edge-set changes — insertions and deletions — into
// warm-start plans the delta-accumulative
// engines can resume from, instead of recomputing every fixed point from
// scratch.
//
// Insertions are easy for the delta model (seed the contribution the new
// edge carries; see algorithms.InsertionSeeder). Deletions are the classic
// hard case: a min/max fixed point may have committed to a value that only
// the removed edge justified, and no single correction event can retract
// it. This package implements the standard recovery: compute the
// dependency cone — the set of vertices whose converged value may have
// depended on any removed contribution — reset exactly those vertices to
// their cold-start state, and re-seed them from the surviving in-edges
// that cross the cone boundary. Everything outside the cone keeps its
// converged value and is provably unaffected (see PlanRestart). When the
// cone covers most of the graph the selective restart buys nothing, so
// the plan degrades to a full replay (cold solve) instead.
//
// The pieces:
//
//   - Graph — the versioned mutable graph: current CSR + epoch + bounded
//     change history. Apply (a live batch), ApplyExact (logged-record
//     replay) and Reset (snapshot adoption) are the only ways its epoch
//     moves; each returns
//     the Change record that mutation hooks, the write-ahead log and
//     replica repair carry unchanged. Since(epoch) hands back what changed
//     after an older epoch.
//   - Restart — the one warm-restart decision: insertion seeding, the
//     PlanRestart cone, or a cold solve. PlanRestart is the cone planner
//     under it: (algorithm, new graph, added, removed, converged state) →
//     warm state + seed events, or a replay decision.
//   - Replayer — a Graph, the last converged state and a solve function:
//     it drives one (algorithm, engine) pair through a mutation sequence
//     with exactly the Since + Restart calls a serving-tier query makes,
//     so differential tests can hold every epoch against a cold-solve
//     oracle.
package stream
