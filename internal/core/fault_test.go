package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim"
	"graphpulse/internal/sim/fault"
)

// faultTestGraph is one RMAT instance big enough to exercise the crossbar,
// spill path, and several scheduler rounds, small enough for -race runs.
func faultTestGraph(t testing.TB) *gen.RMATParams {
	t.Helper()
	return &gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 7,
	}
}

// hubRoot returns the max-out-degree vertex — RMAT leaves many low-numbered
// vertices edgeless, and a rooted run from one of those is a 1-event no-op
// that exercises nothing.
func hubRoot(g *graph.CSR) graph.VertexID {
	best, bd := graph.VertexID(0), uint64(0)
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.RowPtr[v+1] - g.RowPtr[v]; d > bd {
			best, bd = graph.VertexID(v), d
		}
	}
	return best
}

func runFault(t testing.TB, fc fault.Config, mk func(root graph.VertexID) algorithms.Algorithm) (*Result, error) {
	t.Helper()
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	root := hubRoot(g)
	cfg := testConfigs()[0]
	cfg.Fault = fc
	a, err := New(cfg, g, mk(root))
	if err != nil {
		t.Fatal(err)
	}
	return a.Run()
}

// TestFaultNilInjectorIdentity is the acceptance gate for the injector's
// zero cost: a config whose fault block carries a seed but all-zero rates
// must produce a bit-identical Result to the stock run — same values, same
// cycle count, same counters.
func TestFaultNilInjectorIdentity(t *testing.T) {
	clean, err := runFault(t, fault.Config{}, func(r graph.VertexID) algorithms.Algorithm { return algorithms.NewSSSP(r) })
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := runFault(t, fault.Config{Seed: 12345}, func(r graph.VertexID) algorithms.Algorithm { return algorithms.NewSSSP(r) })
	if err != nil {
		t.Fatal(err)
	}
	clean.Seconds, seeded.Seconds = 0, 0 // wall clock, not simulated state
	if !reflect.DeepEqual(clean, seeded) {
		t.Fatal("all-zero fault rates changed the simulation result")
	}
	if clean.FaultsInjected != nil {
		t.Errorf("FaultsInjected = %v on a clean run, want nil", clean.FaultsInjected)
	}
}

// TestFaultSeededDeterminism: two runs with the same fault seed and rates
// must be bit-identical — including which events were duplicated and which
// bits flipped.
func TestFaultSeededDeterminism(t *testing.T) {
	fc := fault.Config{
		Seed:          99,
		DuplicateRate: 1e-3,
		ReorderRate:   1e-3,
		BitFlipRate:   1e-4,
		DRAMFaultRate: 1e-3,
	}
	mk := func(graph.VertexID) algorithms.Algorithm { return algorithms.NewPageRankDelta() }
	a, err := runFault(t, fc, mk)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFault(t, fc, mk)
	if err != nil {
		t.Fatal(err)
	}
	a.Seconds, b.Seconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same fault seed diverged: %d vs %d cycles, faults %v vs %v",
			a.Cycles, b.Cycles, a.FaultsInjected, b.FaultsInjected)
	}
	if a.FaultsInjected["queue_dup"] == 0 {
		t.Errorf("no duplicates injected at rate %g: %v", fc.DuplicateRate, a.FaultsInjected)
	}
}

// TestFaultDropDetectedByWatchdog is the headline detection guarantee: a
// dropped event must trip the event-conservation watchdog well before
// MaxCycles, with a structured ConservationError carrying the imbalance
// snapshot and the injected-fault counters.
func TestFaultDropDetectedByWatchdog(t *testing.T) {
	_, err := runFault(t, fault.Config{Seed: 1, DropRate: 1e-2},
		func(r graph.VertexID) algorithms.Algorithm { return algorithms.NewSSSP(r) })
	if err == nil {
		t.Fatal("run with dropped events terminated cleanly")
	}
	if !errors.Is(err, ErrConservation) {
		t.Fatalf("error %v does not wrap ErrConservation", err)
	}
	var ce *ConservationError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v carries no *ConservationError", err)
	}
	if ce.Imbalance <= 0 {
		t.Errorf("Imbalance = %+d, want positive (events vanished)", ce.Imbalance)
	}
	if ce.Cycle >= testConfigs()[0].MaxCycles {
		t.Errorf("detected at cycle %d, not before MaxCycles %d", ce.Cycle, testConfigs()[0].MaxCycles)
	}
	drops := ce.Faults["queue_drop"]
	if drops == 0 {
		t.Fatalf("snapshot records no drops: %v", ce.Faults)
	}
	if ce.Imbalance > drops {
		t.Errorf("imbalance %+d exceeds injected drops %d — events vanished beyond injection",
			ce.Imbalance, drops)
	}
}

// TestFaultDupReorderTolerated: duplicate and reordered deliveries are
// recovered transparently — the run terminates with values exactly equal to
// the clean fixed point, and the recovery counters show work was done.
func TestFaultDupReorderTolerated(t *testing.T) {
	mk := func(r graph.VertexID) algorithms.Algorithm { return algorithms.NewSSSP(r) }
	clean, err := runFault(t, fault.Config{}, mk)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := runFault(t, fault.Config{Seed: 3, DuplicateRate: 1e-2, ReorderRate: 1e-2}, mk)
	if err != nil {
		t.Fatalf("dup/reorder run failed: %v", err)
	}
	if !reflect.DeepEqual(clean.Values, dirty.Values) {
		t.Error("duplicate/reorder faults changed the fixed point")
	}
	if dirty.RedeliveredEvents == 0 {
		t.Error("RedeliveredEvents = 0, want >0")
	}
	if dirty.ReorderedEvents == 0 {
		t.Error("ReorderedEvents = 0, want >0")
	}
}

// TestFaultDRAMRetryTolerated: failed DRAM transactions are retried with
// backoff; the run completes with exact values (timing changes only) and
// the retry counters are visible in the Result.
func TestFaultDRAMRetryTolerated(t *testing.T) {
	mk := func(r graph.VertexID) algorithms.Algorithm { return algorithms.NewBFS(r) }
	clean, err := runFault(t, fault.Config{}, mk)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := runFault(t, fault.Config{Seed: 5, DRAMFaultRate: 1e-2}, mk)
	if err != nil {
		t.Fatalf("DRAM-fault run failed: %v", err)
	}
	if !reflect.DeepEqual(clean.Values, dirty.Values) {
		t.Error("DRAM retries changed the fixed point (BFS is timing-insensitive)")
	}
	if dirty.MemFaults == 0 {
		t.Error("MemFaults = 0, want >0")
	}
	if dirty.MemRetries < dirty.MemFaults {
		t.Errorf("MemRetries = %d < MemFaults = %d", dirty.MemRetries, dirty.MemFaults)
	}
	if dirty.Cycles <= clean.Cycles {
		t.Errorf("retries did not cost cycles: dirty %d <= clean %d", dirty.Cycles, clean.Cycles)
	}
}

// TestFaultSpillLossRecovered: events lost during slice swap-in are re-read
// through the spill recovery path. Forcing a small queue makes the run
// sliced so the spill path is actually exercised.
func TestFaultSpillLossRecovered(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	root := hubRoot(g)
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(root) }
	cfg := testConfigs()[0]
	cfg.QueueCapacity = (g.NumVertices() + 2) / 3 // force 3 slices
	cleanA, err := New(cfg, g, mk())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanA.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = fault.Config{Seed: 7, SpillLossRate: 5e-2}
	dirtyA, err := New(cfg, g, mk())
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := dirtyA.Run()
	if err != nil {
		t.Fatalf("spill-loss run failed: %v", err)
	}
	if dirty.SpillRecovered == 0 {
		t.Fatalf("SpillRecovered = 0 with faults %v — spill path not exercised", dirty.FaultsInjected)
	}
	if !reflect.DeepEqual(clean.Values, dirty.Values) {
		t.Error("spill recovery changed the fixed point")
	}
}

// TestFaultBitFlipSilentCorruption documents the injector's negative space:
// a mantissa bit flip in a vertex property read is *not* detectable by
// event conservation (no event vanishes), so the run completes — possibly
// with corrupted values. The counter must still report the injections.
func TestFaultBitFlipSilentCorruption(t *testing.T) {
	res, err := runFault(t, fault.Config{Seed: 11, BitFlipRate: 1e-3},
		func(graph.VertexID) algorithms.Algorithm { return algorithms.NewPageRankDelta() })
	if err != nil {
		t.Fatalf("bit-flip run failed (should complete silently): %v", err)
	}
	if res.FaultsInjected["vertex_bit_flip"] == 0 {
		t.Errorf("no bit flips recorded: %v", res.FaultsInjected)
	}
}

// TestReadsParentCheckpoint: a checkpoint file written by the commit before
// the state-file codec moved into atomicio (literal bytes in testdata: SSSP
// from vertex 0 on a 6x5 grid, cycle 183 of 991) loads, resumes to the
// clean fixed point, and writes back byte-identically.
func TestReadsParentCheckpoint(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint_pr18.json")
	ck, err := ReadCheckpoint(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Grid2D(6, 5, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	clean := run(t, cfg, g, algorithms.NewSSSP(0))
	ra, err := NewFromCheckpoint(cfg, g, algorithms.NewSSSP(0), ck)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ra.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Values, clean.Values) {
		t.Fatal("resume from the parent-written checkpoint missed the fixed point")
	}
	out := filepath.Join(t.TempDir(), "ck.json")
	if err := WriteCheckpoint(out, ck); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(golden)
	if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
		t.Error("rewritten checkpoint differs from the parent-written bytes")
	}
	if _, err := ReadCheckpoint(filepath.Join(t.TempDir(), "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing checkpoint: err = %v, want os.ErrNotExist", err)
	}
}

// TestCheckpointResumeValueEquality is the checkpoint acceptance gate: a
// run interrupted at a round barrier and resumed from the snapshot must
// land on exactly the clean fixed point. SSSP's min-based reduce makes
// value equality exact even though the resumed schedule differs.
func TestCheckpointResumeValueEquality(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	root := hubRoot(g)
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(root) }
	clean := run(t, cfg, g, mk())

	var cks []*Checkpoint
	a, err := New(cfg, g, mk())
	if err != nil {
		t.Fatal(err)
	}
	full, err := a.RunWithOptions(RunOptions{
		CheckpointEvery: clean.Cycles / 8,
		OnCheckpoint:    func(c *Checkpoint) error { cks = append(cks, c); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatalf("no checkpoints taken in %d cycles (every %d)", full.Cycles, clean.Cycles/8)
	}
	if !reflect.DeepEqual(full.Values, clean.Values) {
		t.Fatal("taking checkpoints perturbed the run's fixed point")
	}
	for i, ck := range cks {
		if ck.Cycle == 0 || ck.Cycle >= full.Cycles {
			t.Fatalf("checkpoint %d at cycle %d outside run of %d cycles", i, ck.Cycle, full.Cycles)
		}
		ra, err := NewFromCheckpoint(cfg, g, mk(), ck)
		if err != nil {
			t.Fatalf("NewFromCheckpoint(#%d): %v", i, err)
		}
		res, err := ra.Run()
		if err != nil {
			t.Fatalf("resumed run #%d: %v", i, err)
		}
		if !reflect.DeepEqual(res.Values, clean.Values) {
			t.Fatalf("resume from checkpoint #%d (cycle %d) missed the fixed point", i, ck.Cycle)
		}
	}
}

// TestCheckpointRoundTripsJSON: a checkpoint serialized and reloaded must
// restore to the same resumable state (non-finite vertex values included —
// SSSP checkpoints are full of +Inf).
func TestCheckpointRoundTripsJSON(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(hubRoot(g)) }
	var ck *Checkpoint
	a, err := New(cfg, g, mk())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := a.RunWithOptions(RunOptions{
		CheckpointEvery: 1_000,
		OnCheckpoint: func(c *Checkpoint) error {
			if ck == nil {
				ck = c
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Skip("run too short to checkpoint")
	}
	path := t.TempDir() + "/ck.json"
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, back) {
		t.Fatal("checkpoint changed across the JSON round trip")
	}
	ra, err := NewFromCheckpoint(cfg, g, mk(), back)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ra.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Values, clean.Values) {
		t.Fatal("resume from reloaded checkpoint missed the fixed point")
	}
}

// TestRunCanceled: a canceled context aborts the run with an error wrapping
// sim.ErrCanceled (not ErrDeadline, not a clean result).
func TestRunCanceled(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(testConfigs()[0], g, algorithms.NewPageRankDelta())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.RunWithOptions(RunOptions{Ctx: ctx}); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestClusterLinkKillDetected: dropping events on the interconnect must
// trip the cluster-level conservation watchdog with the usual structured
// error.
func TestClusterLinkKillDetected(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(4)
	cfg.Chip.Fault = fault.Config{Seed: 2, LinkKillRate: 1e-2}
	cl, err := NewCluster(cfg, g, algorithms.NewSSSP(hubRoot(g)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Run()
	if err == nil {
		t.Fatal("cluster with killed links terminated cleanly")
	}
	if !errors.Is(err, ErrConservation) {
		t.Fatalf("error %v does not wrap ErrConservation", err)
	}
	var ce *ConservationError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v carries no *ConservationError", err)
	}
	if ce.Faults["link_kill"] == 0 {
		t.Errorf("snapshot records no link kills: %v", ce.Faults)
	}
}

// TestClusterLinkDegradeTolerated: degraded links only slow the
// interconnect; the cluster still reaches the exact fixed point.
func TestClusterLinkDegradeTolerated(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	mkCluster := func(fc fault.Config) *ClusterResult {
		cfg := clusterConfig(3)
		cfg.Chip.Fault = fc
		cl, err := NewCluster(cfg, g, algorithms.NewBFS(hubRoot(g)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("cluster run (faults %+v): %v", fc, err)
		}
		return res
	}
	clean := mkCluster(fault.Config{})
	slow := mkCluster(fault.Config{Seed: 4, LinkDegradeRate: 5e-2, DegradeFactor: 16})
	if slow.LinkDegraded == 0 {
		t.Fatal("LinkDegraded = 0, want >0")
	}
	if !reflect.DeepEqual(clean.Values, slow.Values) {
		t.Error("link degradation changed the fixed point")
	}
}

// TestClusterCanceled: cancellation propagates through every chip engine.
func TestClusterCanceled(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(clusterConfig(3), g, algorithms.NewPageRankDelta())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.RunCtx(ctx); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestClusterDeadline: a cluster that cannot finish within Chip.MaxCycles
// reports sim.ErrDeadline rather than wedging.
func TestClusterDeadline(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(3)
	cfg.Chip.MaxCycles = 500
	cl, err := NewCluster(cfg, g, algorithms.NewSSSP(hubRoot(g)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); !errors.Is(err, sim.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}
