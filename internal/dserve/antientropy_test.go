package dserve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"graphpulse/internal/serve"
)

// mutateDirect applies one insert-only batch straight to a worker,
// bypassing the router — how tests manufacture a diverged replica set.
func mutateDirect(t *testing.T, url string, src, dst uint32) {
	t.Helper()
	code, body := postJSON(t, url+"/v1/mutate", serve.MutateRequest{
		Graph: "g", Edges: []serve.EdgeJSON{{Src: src, Dst: dst, Weight: 0.4}},
	})
	if code != http.StatusOK {
		t.Fatalf("direct mutate: HTTP %d: %s", code, body)
	}
}

// digestOf reads a worker's state digest straight off its serve.Server.
func digestOf(t *testing.T, wk *Worker) serve.DigestInfo {
	t.Helper()
	info, err := wk.Server().StateDigest("g")
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestAntiEntropyHealsViaWAL is the tentpole integration test (run under
// -race in CI): two replicas diverge when one receives writes the other
// never saw; the router's anti-entropy loop detects the digest mismatch
// and heals the laggard by shipping the donor's WAL suffix — verified by
// reading the healed replica directly, not through the router.
func TestAntiEntropyHealsViaWAL(t *testing.T) {
	wkA, tsA := newWorkerNode(t, func(c *WorkerConfig) { c.WALDir = t.TempDir() })
	wkB, tsB := newWorkerNode(t, func(c *WorkerConfig) { c.WALDir = t.TempDir() })
	rt, rts := newTestRouter(t, RouterConfig{
		Replication:         2,
		ProbeInterval:       50 * time.Millisecond,
		AntiEntropyInterval: 50 * time.Millisecond,
	})
	for _, u := range []string{tsA.URL, tsB.URL} {
		if code, body := postJSON(t, rts.URL+"/internal/register", RegisterRequest{URL: u, Graphs: []string{"g"}}); code != http.StatusOK {
			t.Fatalf("register %s: HTTP %d: %s", u, code, body)
		}
	}

	// Diverge: two writes land on A only (as if B missed two fan-outs).
	mutateDirect(t, tsA.URL, 3, 170)
	mutateDirect(t, tsA.URL, 5, 171)
	want := digestOf(t, wkA)
	if want.Epoch != 2 {
		t.Fatalf("donor epoch = %d, want 2", want.Epoch)
	}
	if got := digestOf(t, wkB); got.Digest == want.Digest {
		t.Fatal("replicas not diverged; test setup broken")
	}

	waitFor(t, "anti-entropy heal", 10*time.Second, func() bool {
		got := digestOf(t, wkB)
		return got.Epoch == want.Epoch && got.Digest == want.Digest
	})
	// The replica converges inside the laggard's repair handler, strictly
	// before the router's repair request returns and is counted — so wait
	// for the counter rather than asserting it instantly.
	waitFor(t, "router repair counter", 5*time.Second, func() bool {
		return rt.Metrics().Counter("antientropy_repairs") >= 1
	})
	if rt.Metrics().Counter("antientropy_divergence") == 0 {
		t.Error("divergence not counted")
	}
	if wkB.Server().Metrics().Counter("antientropy_repairs_applied") == 0 {
		t.Error("wal-suffix repair not counted on the healed worker")
	}
	if wkB.Server().Metrics().Counter("antientropy_snapshot_fallbacks") != 0 {
		t.Error("heal fell back to a snapshot; wal suffix should have covered it")
	}
	// The healed replica answers the donor's epoch directly, with no cold
	// re-solve: the replayed batches rebuilt its mutation history.
	resp, code := queryVia(t, tsB.URL)
	if code != http.StatusOK || resp == nil {
		t.Fatalf("query on healed replica: HTTP %d", code)
	}
	if resp.Epoch != want.Epoch {
		t.Fatalf("healed replica answers epoch %d, want %d", resp.Epoch, want.Epoch)
	}
	// Replay re-fired B's mutation hook, so B's own WAL now covers the
	// repaired epochs and can donate onward.
	if got := lastEpoch(wkB.wals["g"]); got != want.Epoch {
		t.Fatalf("healed replica's wal at epoch %d, want %d", got, want.Epoch)
	}
}

// TestRepairDirectWALMode pins the worker-side repair path in isolation:
// a laggard asked to repair from a WAL-bearing donor replays the suffix
// (mode "wal") and converges to digest equality.
func TestRepairDirectWALMode(t *testing.T) {
	wkA, tsA := newWorkerNode(t, func(c *WorkerConfig) { c.WALDir = t.TempDir() })
	wkB, tsB := newWorkerNode(t, func(c *WorkerConfig) { c.WALDir = t.TempDir() })
	mutateDirect(t, tsA.URL, 3, 170)
	mutateDirect(t, tsA.URL, 5, 171)

	code, body := postJSON(t, tsB.URL+"/internal/repair", RepairRequest{Graph: "g", Peer: tsA.URL})
	if code != http.StatusOK {
		t.Fatalf("repair: HTTP %d: %s", code, body)
	}
	var resp RepairResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "wal" || resp.Epoch != 2 || resp.Replayed != 2 {
		t.Fatalf("repair = %+v, want mode=wal epoch=2 replayed=2", resp)
	}
	if a, b := digestOf(t, wkA), digestOf(t, wkB); a != b {
		t.Fatalf("digests after repair differ: %+v vs %+v", a, b)
	}
	if wkA.Server().Metrics().Counter("antientropy_wal_served") == 0 {
		t.Error("donor did not count the shipped suffix")
	}
}

// TestRepairSnapshotFallback pins the fallback: when the donor cannot
// produce the WAL suffix (here: no WAL at all, answering 410), the
// laggard adopts the donor's full snapshot instead.
func TestRepairSnapshotFallback(t *testing.T) {
	wkA, tsA := newWorkerNode(t, nil) // no WALDir: /internal/wal answers 410
	wkB, tsB := newWorkerNode(t, func(c *WorkerConfig) { c.WALDir = t.TempDir() })
	mutateDirect(t, tsA.URL, 3, 170)
	solveAndMutate(t, tsA.URL) // cached fixed point rides along in the snapshot

	code, body := postJSON(t, tsB.URL+"/internal/repair", RepairRequest{Graph: "g", Peer: tsA.URL})
	if code != http.StatusOK {
		t.Fatalf("repair: HTTP %d: %s", code, body)
	}
	var resp RepairResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "snapshot" {
		t.Fatalf("repair mode = %q, want snapshot", resp.Mode)
	}
	if a, b := digestOf(t, wkA), digestOf(t, wkB); a != b {
		t.Fatalf("digests after snapshot repair differ: %+v vs %+v", a, b)
	}
	if wkA.Server().Metrics().Counter("antientropy_wal_gone") == 0 {
		t.Error("donor did not count the 410")
	}
	if wkB.Server().Metrics().Counter("antientropy_snapshot_fallbacks") == 0 {
		t.Error("snapshot fallback not counted on the laggard")
	}
}

// TestRepairSnapshotImportFailure: a donor whose WAL answers 410 and whose
// snapshot cannot be imported (a format version this build does not read)
// leaves the laggard where it was, and the repair says so — an error
// answer, counted as a repair error and not as a snapshot fallback — so
// the router does not count a repair that never happened.
func TestRepairSnapshotImportFailure(t *testing.T) {
	donor := buildWorker(t, nil) // no WALDir: /internal/wal answers 410
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/snapshot", func(w http.ResponseWriter, r *http.Request) {
		snap, err := donor.Server().ExportSnapshot("g")
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		snap.Version = serve.SnapshotVersion + 1
		writeJSON(w, http.StatusOK, snap)
	})
	mux.Handle("/", donor.Handler())
	tsA := httptest.NewServer(mux)
	t.Cleanup(func() {
		tsA.Close()
		donor.Server().Shutdown(context.Background())
	})
	mutateDirect(t, tsA.URL, 3, 170)
	wkB, tsB := newWorkerNode(t, nil)

	code, body := postJSON(t, tsB.URL+"/internal/repair", RepairRequest{Graph: "g", Peer: tsA.URL})
	if code == http.StatusOK {
		t.Fatalf("repair with an unimportable snapshot answered 200: %s", body)
	}
	m := wkB.Server().Metrics()
	if got := m.Counter("antientropy_repair_errors"); got != 1 {
		t.Errorf("antientropy_repair_errors = %d, want 1", got)
	}
	if got := m.Counter("antientropy_snapshot_fallbacks"); got != 0 {
		t.Errorf("antientropy_snapshot_fallbacks = %d, want 0 (nothing was adopted)", got)
	}
	if got := digestOf(t, wkB).Epoch; got != 0 {
		t.Errorf("laggard epoch = %d after a failed repair, want 0", got)
	}
}

// TestDigestEndpoint pins the wire shape of GET /internal/digest and that
// equal states digest equal while different states differ.
func TestDigestEndpoint(t *testing.T) {
	wkA, tsA := newWorkerNode(t, nil)
	_, tsB := newWorkerNode(t, nil)

	get := func(url string) serve.DigestInfo {
		t.Helper()
		resp, err := http.Get(url + "/internal/digest?graph=g")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("digest: HTTP %d", resp.StatusCode)
		}
		var info serve.DigestInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}

	a, b := get(tsA.URL), get(tsB.URL)
	if a != b {
		t.Fatalf("identical fresh replicas digest differently: %+v vs %+v", a, b)
	}
	if a.Graph != "g" || a.Epoch != 0 || a.Digest == "" {
		t.Fatalf("digest info = %+v", a)
	}
	mutateDirect(t, tsA.URL, 3, 170)
	if a2 := get(tsA.URL); a2.Digest == a.Digest || a2.Epoch != 1 {
		t.Fatalf("mutation did not change the digest: %+v -> %+v", a, a2)
	}
	if wkA.Server().Metrics().Counter("antientropy_digests_served") < 2 {
		t.Error("digest serves not counted")
	}

	// Unknown graph is a 404.
	resp, err := http.Get(tsA.URL + "/internal/digest?graph=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph digest: HTTP %d, want 404", resp.StatusCode)
	}
}
