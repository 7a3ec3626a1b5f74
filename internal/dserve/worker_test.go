package dserve

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphpulse/internal/atomicio"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/serve"
)

// buildWorker builds a serve.Server over the deterministic test graph and
// wraps it in a Worker with the given config overrides.
func buildWorker(t *testing.T, mut func(*WorkerConfig)) *Worker {
	t.Helper()
	s, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: "g", Graph: testGraph(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WorkerConfig{Server: s}
	if mut != nil {
		mut(&cfg)
	}
	wk, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return wk
}

// newWorkerNode serves a never-started worker's handler (including the
// /internal/* peer endpoints) via httptest: no recovery, no background
// loop — for tests that drive those pieces by hand.
func newWorkerNode(t *testing.T, mut func(*WorkerConfig)) (*Worker, *httptest.Server) {
	t.Helper()
	wk := buildWorker(t, mut)
	ts := httptest.NewServer(wk.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		wk.Server().Shutdown(ctx)
	})
	return wk, ts
}

// startWorkerNode boots a worker the way cmd/serve does — Worker.Start on
// a loopback port — and returns its base URL. Cleanup Stops it (final
// persist, then drain), after the test body has made its assertions.
func startWorkerNode(t *testing.T, mut func(*WorkerConfig)) (*Worker, string) {
	t.Helper()
	wk := buildWorker(t, mut)
	addr, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := wk.Stop(ctx); err != nil {
			t.Errorf("worker stop: %v", err)
		}
	})
	return wk, "http://" + addr.String()
}

// solveAndMutate pushes a worker's graph to epoch 1 with a cached pr
// fixed point at that epoch, so its snapshot carries both.
func solveAndMutate(t *testing.T, url string) *serve.QueryResponse {
	t.Helper()
	code, body := postJSON(t, url+"/v1/mutate", serve.MutateRequest{
		Graph: "g", Edges: []serve.EdgeJSON{{Src: 3, Dst: 170, Weight: 0.4}},
	})
	if code != 200 {
		t.Fatalf("mutate: HTTP %d: %s", code, body)
	}
	resp, code := queryVia(t, url)
	if code != 200 || resp == nil {
		t.Fatalf("query: HTTP %d", code)
	}
	return resp
}

// TestWorkerPersistAndRestoreLocal pins the warm-restart path: a worker
// persists its snapshot, a fresh worker Started on the same directory
// restores it before serving, and the first query is a cache hit at the
// persisted epoch — no cold re-solve.
func TestWorkerPersistAndRestoreLocal(t *testing.T) {
	dir := t.TempDir()
	wk1, ts1 := newWorkerNode(t, func(c *WorkerConfig) { c.SnapshotDir = dir })
	solveAndMutate(t, ts1.URL)
	if err := wk1.PersistSnapshots(); err != nil {
		t.Fatal(err)
	}
	if wk1.Server().Metrics().Counter("worker_snapshot_saves") != 1 {
		t.Fatal("persist not counted")
	}
	if _, err := os.Stat(filepath.Join(dir, "g.snap.json")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	wk2, url2 := startWorkerNode(t, func(c *WorkerConfig) { c.SnapshotDir = dir })
	if wk2.Server().Metrics().Counter("worker_snapshot_restores") != 1 {
		t.Fatal("restore not counted")
	}
	resp, code := queryVia(t, url2)
	if code != 200 || resp == nil {
		t.Fatalf("query after restore: HTTP %d", code)
	}
	if !resp.Cached || resp.Epoch != 1 {
		t.Fatalf("restored query cached=%v epoch=%d, want cache hit at epoch 1", resp.Cached, resp.Epoch)
	}
	if n := wk2.Server().Metrics().Counter("query_cold_solves"); n != 0 {
		t.Fatalf("restored worker cold-solved %d times, want 0", n)
	}
	// The restore seeded the persisted epoch: the restarted worker's first
	// tick at that epoch writes nothing.
	if err := wk2.PersistSnapshots(); err != nil {
		t.Fatal(err)
	}
	if got := wk2.Server().Metrics().Counter("worker_snapshot_saves"); got != 0 {
		t.Fatalf("restored worker re-persisted an unchanged epoch (saves=%d)", got)
	}

	// A corrupt snapshot file must not block startup.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "g.snap.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, url3 := startWorkerNode(t, func(c *WorkerConfig) { c.SnapshotDir = bad })
	if resp, code := queryVia(t, url3); code != 200 || resp == nil {
		t.Fatalf("query after corrupt-snapshot startup: HTTP %d", code)
	}
}

// TestPersistTickReadsNothing pins the idle tick: a persist pass at an
// unchanged epoch consults the remembered epoch and stats the file, never
// decoding it (the file is swapped for garbage to prove it), and a
// snapshot deleted out from under the worker is rewritten on the next tick.
func TestPersistTickReadsNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap.json")
	wk, ts := newWorkerNode(t, func(c *WorkerConfig) { c.SnapshotDir = dir })
	solveAndMutate(t, ts.URL)
	saves := func() int64 { return wk.Server().Metrics().Counter("worker_snapshot_saves") }
	if err := wk.PersistSnapshots(); err != nil || saves() != 1 {
		t.Fatalf("first tick: err=%v saves=%d, want 1", err, saves())
	}
	if err := os.WriteFile(path, []byte("unreadable"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := wk.PersistSnapshots(); err != nil || saves() != 1 {
		t.Fatalf("idle tick: err=%v saves=%d, want the file left alone", err, saves())
	}
	if raw, _ := os.ReadFile(path); string(raw) != "unreadable" {
		t.Fatal("idle tick rewrote the snapshot file")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := wk.PersistSnapshots(); err != nil || saves() != 2 {
		t.Fatalf("tick after delete: err=%v saves=%d, want 2", err, saves())
	}
	var snap Snapshot
	if err := atomicio.ReadJSON(path, &snap); err != nil || snap.Epoch != 1 {
		t.Fatalf("rewritten snapshot: epoch %d, %v", snap.Epoch, err)
	}
}

// TestWorkerStartReadsParentSnapshot: a snapshot file written by the
// commit before persistence moved onto atomicio.WriteJSON (literal bytes in
// testdata) restores through Start and answers from cache.
func TestWorkerStartReadsParentSnapshot(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot_pr18.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g.snap.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := gen.ErdosRenyi(24, 60, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: "g", Graph: g}}})
	if err != nil {
		t.Fatal(err)
	}
	wk, err := NewWorker(WorkerConfig{Server: s, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Stop(context.Background())
	resp, code := queryVia(t, "http://"+addr.String())
	if code != 200 || resp == nil || !resp.Cached || resp.Epoch != 1 {
		t.Fatalf("query on parent-written snapshot: HTTP %d %+v, want a cache hit at epoch 1", code, resp)
	}
	// Re-persisting the adopted state reproduces the parent's bytes: the
	// on-disk encoding did not move.
	if err := os.Remove(filepath.Join(dir, "g.snap.json")); err != nil {
		t.Fatal(err)
	}
	if err := wk.PersistSnapshots(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "g.snap.json")); string(got) != string(raw) {
		t.Errorf("re-persisted snapshot differs from the parent-written bytes:\n got %s\nwant %s", got, raw)
	}
}

// TestWorkerPeerSyncThroughRouter runs the full rejoin flow: worker A
// registers and accumulates state; worker B registers later, learns A is
// its peer from the registration ack, runs the catch-up ladder against it
// (A keeps no WAL, so the ladder ends on A's /internal/snapshot), and
// serves A's epoch from cache without re-solving.
func TestWorkerPeerSyncThroughRouter(t *testing.T) {
	rt, rts := newTestRouter(t, RouterConfig{Replication: 2, ProbeInterval: 50 * time.Millisecond})

	wkA, tsA := newWorkerNode(t, func(c *WorkerConfig) {
		c.RouterURL = rts.URL
		c.Advertise = "placeholder" // replaced below; httptest URL unknown at config time
	})
	wkA.cfg.Advertise = tsA.URL
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	doneA := make(chan struct{})
	go func() { defer close(doneA); wkA.run(ctxA) }()
	waitFor(t, "worker A registration", 5*time.Second, func() bool {
		ws := rt.Workers()
		return len(ws) == 1 && ws[0].URL == tsA.URL
	})
	want := solveAndMutate(t, tsA.URL)

	wkB, tsB := newWorkerNode(t, func(c *WorkerConfig) {
		c.RouterURL = rts.URL
		c.Advertise = "placeholder"
	})
	wkB.cfg.Advertise = tsB.URL
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	doneB := make(chan struct{})
	go func() { defer close(doneB); wkB.run(ctxB) }()

	waitFor(t, "worker B peer sync", 5*time.Second, func() bool {
		return wkB.Server().Metrics().Counter("worker_snapshot_restores") >= 1
	})
	resp, code := queryVia(t, tsB.URL)
	if code != 200 || resp == nil {
		t.Fatalf("query on rejoined worker: HTTP %d", code)
	}
	if !resp.Cached || resp.Epoch != want.Epoch {
		t.Fatalf("rejoined worker cached=%v epoch=%d, want cache hit at epoch %d",
			resp.Cached, resp.Epoch, want.Epoch)
	}
	if n := wkB.Server().Metrics().Counter("query_cold_solves"); n != 0 {
		t.Fatalf("rejoined worker cold-solved %d times, want 0 (snapshot shipping failed)", n)
	}

	cancelA()
	cancelB()
	<-doneA
	<-doneB
}

// TestWorkerCrashReplayFromWAL is the durability tentpole test, booted the
// way production boots: a Started worker acknowledges mutations after its
// last snapshot tick and is then dropped without Stop (no final persist —
// the kill -9 shape). A fresh worker Started over the same directories
// restores the snapshot, replays the WAL tail past it, and serves the full
// acknowledged epoch with zero cold solves.
func TestWorkerCrashReplayFromWAL(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	dirs := func(c *WorkerConfig) { c.SnapshotDir, c.WALDir = snapDir, walDir }
	wk1, url1 := startWorkerNode(t, dirs)
	// Epoch 1 with a cached fixed point, snapshotted.
	solveAndMutate(t, url1)
	if err := wk1.PersistSnapshots(); err != nil {
		t.Fatal(err)
	}
	// Two more acknowledged mutations after the snapshot tick; then the
	// process "dies" — wk1 is only Stopped at cleanup, so until then the WAL
	// is the only durable record of them.
	mutateDirect(t, url1, 5, 171)
	mutateDirect(t, url1, 7, 172)
	if got := wk1.Server().Metrics().Counter("wal_appends"); got != 3 {
		t.Fatalf("wal_appends = %d, want 3 (every acknowledged epoch logged)", got)
	}

	wk2, url2 := startWorkerNode(t, dirs)
	if got := wk2.Server().Metrics().Counter("wal_replayed_batches"); got != 2 {
		t.Fatalf("wal_replayed_batches = %d, want 2 (the post-snapshot tail)", got)
	}
	if epoch, err := wk2.Server().GraphEpoch("g"); err != nil || epoch != 3 {
		t.Fatalf("restarted epoch = %d (%v), want 3", epoch, err)
	}
	resp, code := queryVia(t, url2)
	if code != 200 || resp == nil {
		t.Fatalf("query after crash restart: HTTP %d", code)
	}
	if resp.Epoch != 3 {
		t.Fatalf("restarted worker answers epoch %d, want 3", resp.Epoch)
	}
	if n := wk2.Server().Metrics().Counter("query_cold_solves"); n != 0 {
		t.Fatalf("restarted worker cold-solved %d times, want 0 (snapshot + wal replay should warm-start)", n)
	}
	// Replayed state and the pre-crash state digest identically.
	if d1, d2 := digestOf(t, wk1), digestOf(t, wk2); d1 != d2 {
		t.Fatalf("post-replay digest %+v differs from pre-crash %+v", d2, d1)
	}
}

// TestWorkerPeerSyncStaleRejected pins the stale-peer edge, racing live
// mutations: the catch-up ladder sees the rejoiner is ahead and downloads
// nothing, and a stale snapshot that does reach adoption is rejected
// (counted, state untouched) without disturbing the concurrent write path.
func TestWorkerPeerSyncStaleRejected(t *testing.T) {
	wkA, tsA := newWorkerNode(t, nil) // the stale peer: epoch 1
	solveAndMutate(t, tsA.URL)
	wkB, tsB := newWorkerNode(t, nil) // ahead of the peer: epoch 2
	solveAndMutate(t, tsB.URL)
	mutateDirect(t, tsB.URL, 9, 173)
	stale, err := wkA.Server().ExportSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			mutateDirect(t, tsB.URL, uint32(10+i), 174)
		}
	}()
	wkB.catchUp(context.Background(), map[string][]string{"g": {tsA.URL}})
	wkB.adoptSnapshot(stale, "test")
	<-done

	if got := wkA.Server().Metrics().Counter("worker_snapshot_served"); got != 0 {
		t.Fatalf("rejoiner ahead of its peer downloaded %d snapshot(s), want 0", got)
	}
	if got := wkB.Server().Metrics().Counter("worker_snapshot_stale"); got != 1 {
		t.Fatalf("worker_snapshot_stale = %d, want 1", got)
	}
	if got := wkB.Server().Metrics().Counter("worker_snapshot_restores"); got != 0 {
		t.Fatalf("stale snapshot adopted (restores=%d)", got)
	}
	if epoch, err := wkB.Server().GraphEpoch("g"); err != nil || epoch != 10 {
		t.Fatalf("epoch after stale sync + 8 concurrent mutations = %d (%v), want 10", epoch, err)
	}
}

// TestRejoinCatchUpViaWAL pins the cheap rung of the ladder: a rejoiner
// whose gap the donor's WAL covers replays the suffix from the first
// responsive peer and never asks for a snapshot.
func TestRejoinCatchUpViaWAL(t *testing.T) {
	wkA, tsA := newWorkerNode(t, func(c *WorkerConfig) { c.WALDir = t.TempDir() })
	wkB, _ := newWorkerNode(t, func(c *WorkerConfig) { c.WALDir = t.TempDir() })
	mutateDirect(t, tsA.URL, 3, 170)
	mutateDirect(t, tsA.URL, 5, 171)

	wkB.catchUp(context.Background(), map[string][]string{"g": {"http://127.0.0.1:1", tsA.URL}})

	if a, b := digestOf(t, wkA), digestOf(t, wkB); a != b {
		t.Fatalf("digests after rejoin differ: %+v vs %+v", a, b)
	}
	mA, mB := wkA.Server().Metrics(), wkB.Server().Metrics()
	if got := mB.Counter("antientropy_repair_errors"); got != 1 {
		t.Errorf("antientropy_repair_errors = %d, want 1 (the unreachable first peer)", got)
	}
	if mB.Counter("antientropy_repairs_applied") != 1 || mB.Counter("antientropy_snapshot_fallbacks") != 0 {
		t.Errorf("rejoin did not converge via the wal suffix: applied=%d fallbacks=%d",
			mB.Counter("antientropy_repairs_applied"), mB.Counter("antientropy_snapshot_fallbacks"))
	}
	if mA.Counter("antientropy_wal_served") != 1 || mA.Counter("worker_snapshot_served") != 0 {
		t.Errorf("donor served wal=%d snapshot=%d, want 1 and 0",
			mA.Counter("antientropy_wal_served"), mA.Counter("worker_snapshot_served"))
	}
}

// TestRejoinAtPeerFetchesNothing: a rejoiner already at its peer's
// (epoch, digest) — the dserve-smoke restart from a current local
// snapshot — transfers neither a WAL suffix nor a snapshot.
func TestRejoinAtPeerFetchesNothing(t *testing.T) {
	wkA, tsA := newWorkerNode(t, nil)
	wkB, tsB := newWorkerNode(t, nil)
	mutateDirect(t, tsA.URL, 3, 170)
	mutateDirect(t, tsB.URL, 3, 170)

	resp, err := wkB.repairFrom(context.Background(), "g", tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 1 || resp.Replayed != 0 {
		t.Fatalf("repair of a current replica = %+v, want epoch 1 with nothing replayed", resp)
	}
	mA, mB := wkA.Server().Metrics(), wkB.Server().Metrics()
	if mA.Counter("worker_snapshot_served") != 0 || mA.Counter("antientropy_wal_gone") != 0 {
		t.Errorf("peer was asked for snapshot=%d wal=%d, want 0 and 0",
			mA.Counter("worker_snapshot_served"), mA.Counter("antientropy_wal_gone"))
	}
	if mB.Counter("worker_snapshot_restores") != 0 || mB.Counter("antientropy_repairs_applied") != 0 {
		t.Errorf("a no-op catch-up counted restores=%d applied=%d",
			mB.Counter("worker_snapshot_restores"), mB.Counter("antientropy_repairs_applied"))
	}
}

// TestWorkerPersistRacingMutation races PersistSnapshots against a stream
// of mutations: every persist must write a self-consistent snapshot (the
// export is epoch-atomic), the skip-if-current check must not lose a
// newer epoch, and the final on-disk image must decode at some reached
// epoch.
func TestWorkerPersistRacingMutation(t *testing.T) {
	dir := t.TempDir()
	wk, ts := newWorkerNode(t, func(c *WorkerConfig) { c.SnapshotDir = dir })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 16; i++ {
			mutateDirect(t, ts.URL, uint32(i), 175)
		}
	}()
	for i := 0; i < 8; i++ {
		if err := wk.PersistSnapshots(); err != nil {
			t.Errorf("persist %d: %v", i, err)
		}
	}
	<-done
	// One more persist with the writers quiesced: skip-if-current must
	// still notice the epochs the racing writers added.
	if err := wk.PersistSnapshots(); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := atomicio.ReadJSON(filepath.Join(dir, "g.snap.json"), &snap); err != nil {
		t.Fatal(err)
	}
	epoch, err := wk.Server().GraphEpoch("g")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != epoch {
		t.Fatalf("final snapshot at epoch %d, resident %d", snap.Epoch, epoch)
	}
	saves := wk.Server().Metrics().Counter("worker_snapshot_saves")
	if saves == 0 {
		t.Fatal("no snapshot saved")
	}
	if err := wk.PersistSnapshots(); err != nil {
		t.Fatal(err)
	}
	if got := wk.Server().Metrics().Counter("worker_snapshot_saves"); got != saves {
		t.Fatalf("persist at an unchanged epoch saved again (%d -> %d)", saves, got)
	}
}

// TestWorkerConfigValidation pins the config contract.
func TestWorkerConfigValidation(t *testing.T) {
	if _, err := NewWorker(WorkerConfig{}); err == nil {
		t.Error("nil Server accepted")
	}
	g, err := gen.ErdosRenyi(20, 40, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: "g", Graph: g}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if _, err := NewWorker(WorkerConfig{Server: s, RouterURL: "http://127.0.0.1:1"}); err == nil {
		t.Error("router without advertise accepted")
	}
	if _, err := NewWorker(WorkerConfig{Server: s, RouterURL: "://bad", Advertise: "http://x:1"}); err == nil {
		t.Error("malformed router url accepted")
	}
}
