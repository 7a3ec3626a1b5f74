package dserve

// The fleet legs: the serving tier end to end, in-process, through the
// production lifecycle (serve.Server.Start/Shutdown, Worker.Start/Stop,
// Router.Start/Shutdown) on loopback ports, under the race detector with
// the rest of the suite. A crashed worker is its Server's Shutdown: that
// closes the listener but skips the final snapshot persist, which only the
// worker loop's exit performs — the kill -9 shape. The only waiting is
// waitFor's poll.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphpulse/internal/dserve/chaos"
	"graphpulse/internal/serve"
)

// burstClients is the burst's closed-loop client count.
const burstClients = 8

// sumTolerance is the relative tolerance when comparing per-replica value
// sums. Replicas reach the fixed point along different paths — cold
// solves, epoch-by-epoch warm restarts, snapshot restores — and each path
// stops at the solver's per-vertex convergence slack, which accumulates
// across the whole vertex set: percent-level sum differences between a
// cold-solved and a long warm-started replica are normal (observed ~2%
// on WG-class graphs after ~100 incremental epochs). Real divergence — a
// missed mutation — is caught exactly by the digest comparison, so this
// bound only needs to separate solver slack from grossly wrong answers.
const sumTolerance = 5e-2

// opKind is one burst op's request kind.
type opKind int

const (
	opQuery  opKind = iota
	opMutate        // a 16-edge insert batch on /v1/mutate
	opDelete        // a /v1/mutate delete batch of edges this run inserted
	opMixed         // a 64-op /v1/mutate batch, ~1/4 of it deletes
	numOpKinds
)

var opKindNames = [numOpKinds]string{"query", "mutate", "delete", "mixed"}

// burstMix picks each op's kind from its sequence number: a multiple of
// mixedEvery is a mixed batch, else of deleteEvery a delete, else of
// mutateEvery a mutate (0 = never); every other op is a query.
type burstMix struct{ mixedEvery, deleteEvery, mutateEvery int64 }

func (m burstMix) kind(seq int64) opKind {
	switch {
	case m.mixedEvery > 0 && seq%m.mixedEvery == 0:
		return opMixed
	case m.deleteEvery > 0 && seq%m.deleteEvery == 0:
		return opDelete
	case m.mutateEvery > 0 && seq%m.mutateEvery == 0:
		return opMutate
	}
	return opQuery
}

// kindTally counts one kind's ops: issued, answered 2xx, and hard failures
// — a transport error or any status other than 2xx, 429 and 504, which are
// the server answering rather than the tier losing the request.
type kindTally struct{ issued, ok, hard int64 }

type burstResult struct {
	kinds     [numOpKinds]kindTally
	firstHard string
}

// requireNoHardFailures is every burst's gate.
func (r *burstResult) requireNoHardFailures(t *testing.T) {
	t.Helper()
	for k, kt := range r.kinds {
		if kt.issued > 0 {
			t.Logf("%s: %d issued, %d ok, %d hard failures", opKindNames[k], kt.issued, kt.ok, kt.hard)
		}
		if kt.hard > 0 {
			t.Errorf("%s: %d of %d ops hard-failed (first: %s)", opKindNames[k], kt.hard, kt.issued, r.firstHard)
		}
	}
}

// burst drives baseURL with burstClients clients sending perClient ops
// each back to back, on graph "g" of testGraphVertices vertices. onOp,
// when non-nil, runs on the drawing client before op seq (1-based) is
// sent — how a leg injects a fault at a fixed point of the run.
func burst(t *testing.T, baseURL string, perClient int, mix burstMix, onOp func(seq int64)) burstResult {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	var (
		seq      atomic.Int64
		mu       sync.Mutex // guards res and inserted
		res      burstResult
		inserted []serve.EdgeJSON // edges acknowledged as inserted, oldest first
		wg       sync.WaitGroup
	)
	randomEdge := func(rng *rand.Rand) serve.EdgeJSON {
		return serve.EdgeJSON{
			Src:    uint32(rng.Intn(testGraphVertices)),
			Dst:    uint32(rng.Intn(testGraphVertices)),
			Weight: float32(rng.Float64()*0.9 + 0.1),
		}
	}
	// takeInserted pops up to n inserted edges; with none left it falls
	// back to one random pair, which the server reports as a missed delete.
	takeInserted := func(n int, rng *rand.Rand) []serve.EdgeJSON {
		mu.Lock()
		defer mu.Unlock()
		n = min(n, len(inserted))
		out := append([]serve.EdgeJSON(nil), inserted[:n]...)
		inserted = inserted[n:]
		if len(out) == 0 {
			out = append(out, randomEdge(rng))
		}
		return out
	}
	send := func(path string, v any) (int, error) {
		raw, err := json.Marshal(v)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(baseURL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}

	for c := 0; c < burstClients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for range perClient {
				s := seq.Add(1)
				if onOp != nil {
					onOp(s)
				}
				var (
					code int
					err  error
					ins  []serve.EdgeJSON // inserted if the op succeeds
				)
				kind := mix.kind(s)
				switch kind {
				case opQuery:
					code, err = send("/v1/query", serve.QueryRequest{Graph: "g", Algorithm: "pr", Top: 1})
				case opMutate:
					ins = make([]serve.EdgeJSON, 16)
					for i := range ins {
						ins[i] = randomEdge(rng)
					}
					code, err = send("/v1/mutate", serve.MutateRequest{Graph: "g", Edges: ins})
				case opDelete:
					code, err = send("/v1/mutate", serve.MutateRequest{Graph: "g", Deletes: takeInserted(16, rng)})
				case opMixed:
					var dels []serve.EdgeJSON
					for range 64 {
						if rng.Intn(4) == 0 {
							dels = append(dels, takeInserted(1, rng)...)
							continue
						}
						ins = append(ins, randomEdge(rng))
					}
					code, err = send("/v1/mutate", serve.MutateRequest{Graph: "g", Edges: ins, Deletes: dels})
				}
				ok := err == nil && code >= 200 && code < 300
				mu.Lock()
				kt := &res.kinds[kind]
				kt.issued++
				switch {
				case ok:
					kt.ok++
					inserted = append(inserted, ins...)
				case err == nil && (code == http.StatusTooManyRequests || code == http.StatusGatewayTimeout):
				default:
					kt.hard++
					if res.firstHard == "" {
						res.firstHard = fmt.Sprintf("op %d (%s): status %d, err %v", s, opKindNames[kind], code, err)
					}
				}
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(int64(c) + 1)))
	}
	wg.Wait()
	return res
}

// freeAddr returns a loopback address nothing listens on, so a worker's
// Advertise URL is known before its Start binds it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startFleetWorker Starts a worker on addr registered with routerURL; its
// snapshot period outlasts the test, so only PersistSnapshots and Stop
// persist. Cleanup Stops it.
func startFleetWorker(t *testing.T, routerURL, addr string, mut func(*WorkerConfig)) *Worker {
	t.Helper()
	wk := buildWorker(t, func(c *WorkerConfig) {
		c.RouterURL, c.Advertise, c.SnapshotEvery = routerURL, "http://"+addr, time.Hour
		if mut != nil {
			mut(c)
		}
	})
	if _, err := wk.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := wk.Stop(ctx); err != nil {
			t.Errorf("worker %s stop: %v", addr, err)
		}
	})
	return wk
}

// startFleet boots a router that replicates to all three workers, with
// probe, backoff and anti-entropy periods in tens of milliseconds, and
// three registered, healthy workers; client is the router's outbound
// client (nil for the default) and dirs configures worker i. Cleanup
// shuts the router down after every worker has stopped.
func startFleet(t *testing.T, client *http.Client, dirs func(i int, c *WorkerConfig)) (*Router, string, []string, []*Worker) {
	t.Helper()
	rt, err := NewRouter(RouterConfig{
		Replication:         3,
		ProbeInterval:       50 * time.Millisecond,
		BackoffBase:         20 * time.Millisecond,
		BackoffMax:          100 * time.Millisecond,
		AntiEntropyInterval: 50 * time.Millisecond,
		Client:              client,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	})
	routerURL := "http://" + bound.String()
	addrs := make([]string, 3)
	wks := make([]*Worker, 3)
	for i := range wks {
		addrs[i] = freeAddr(t)
		wks[i] = startFleetWorker(t, routerURL, addrs[i], func(c *WorkerConfig) { dirs(i, c) })
	}
	waitFor(t, "three healthy workers", 5*time.Second, func() bool {
		healthy := 0
		for _, w := range rt.Workers() {
			if w.Healthy {
				healthy++
			}
		}
		return healthy == 3
	})
	return rt, routerURL, addrs, wks
}

// crash kills a worker the kill -9 way: its listener closes and nothing is
// persisted. Its Stop stays with the Cleanup startFleetWorker registered.
func crash(t *testing.T, wk *Worker) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := wk.Server().Shutdown(ctx); err != nil {
		t.Errorf("crash: %v", err)
	}
	// The test's direct requests share http.DefaultClient's pool: a
	// keep-alive connection to the dead server could carry the next POST to
	// a replacement on the same address, and a POST is not retried on EOF.
	http.DefaultClient.CloseIdleConnections()
}

// TestFleetServeBurst: one bare server on a mutable graph takes the
// full query/mutate/delete/mixed-batch mix without a hard failure, answers
// queries from cache, and drains cleanly.
func TestFleetServeBurst(t *testing.T) {
	s, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{
		{Name: "g", Graph: testGraph(t)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res := burst(t, "http://"+addr.String(), 100, burstMix{mixedEvery: 50, deleteEvery: 20, mutateEvery: 8}, nil)
	res.requireNoHardFailures(t)
	for k, kt := range res.kinds {
		if kt.ok == 0 {
			t.Errorf("%s: %d issued, none succeeded", opKindNames[k], kt.issued)
		}
	}
	m := s.Metrics()
	if m.Counter("query_cache_hits") == 0 || m.Counter("mutate_delete_edges") == 0 {
		t.Errorf("query_cache_hits = %d, mutate_delete_edges = %d, want both > 0",
			m.Counter("query_cache_hits"), m.Counter("mutate_delete_edges"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestFleetKillRejoin: three replicas snapshot their warm state, one is
// killed during a routed read burst — the router's retries absorb it — and
// its replacement rejoins from the snapshot, answering from cache without
// a cold solve.
func TestFleetKillRejoin(t *testing.T) {
	snapDirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	rt, routerURL, addrs, wks := startFleet(t, nil, func(i int, c *WorkerConfig) { c.SnapshotDir = snapDirs[i] })
	for i, wk := range wks {
		if resp, code := queryVia(t, "http://"+addrs[i]); resp == nil {
			t.Fatalf("prewarm worker %d: HTTP %d", i, code)
		}
		if err := wk.PersistSnapshots(); err != nil {
			t.Fatal(err)
		}
	}

	victim := wks[2]
	res := burst(t, routerURL, 100, burstMix{}, func(seq int64) {
		if seq == 200 {
			crash(t, victim)
		}
	})
	res.requireNoHardFailures(t)
	t.Logf("router_retries = %d", rt.Metrics().Counter("router_retries"))
	if got := rt.Metrics().Counter("router_retries"); got == 0 {
		t.Error("router_retries = 0: no read reached the killed worker")
	}

	wk := startFleetWorker(t, routerURL, addrs[2], func(c *WorkerConfig) { c.SnapshotDir = snapDirs[2] })
	m := wk.Server().Metrics()
	if got := m.Counter("worker_snapshot_restores"); got == 0 {
		t.Fatal("replacement did not restore its snapshot")
	}
	resp, code := queryVia(t, "http://"+addrs[2])
	if resp == nil || !resp.Cached {
		t.Fatalf("replacement's first query: HTTP %d %+v, want a cache hit", code, resp)
	}
	if got := m.Counter("query_cold_solves"); got != 0 {
		t.Errorf("replacement cold-solved %d times, want 0", got)
	}
}

// TestFleetPartitionRepair: a replica partitioned from the router during a
// routed mutate burst misses acknowledged writes; after the heal the
// anti-entropy loop repairs it until all three replicas hold one state and
// answer alike. Then it crashes after two writes past its last snapshot,
// and its replacement replays them from the WAL without a cold solve.
func TestFleetPartitionRepair(t *testing.T) {
	snapDirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	walDirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	dirs := func(i int, c *WorkerConfig) { c.SnapshotDir, c.WALDir = snapDirs[i], walDirs[i] }
	proxy, err := chaos.New(chaos.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rt, routerURL, addrs, wks := startFleet(t, proxy.Wrap(&http.Client{Timeout: 30 * time.Second}), dirs)

	res := burst(t, routerURL, 60, burstMix{mutateEvery: 6}, func(seq int64) {
		switch seq {
		case 120:
			proxy.Partition(addrs[2])
		case 300:
			proxy.HealAll()
		}
	})
	res.requireNoHardFailures(t)
	if got := rt.Metrics().Counter("router_mutate_partial"); got == 0 {
		t.Error("router_mutate_partial = 0: no write missed the partitioned replica")
	}
	waitFor(t, "an anti-entropy repair", 10*time.Second, func() bool {
		return rt.Metrics().Counter("antientropy_repairs") >= 1
	})
	t.Logf("router_mutate_partial = %d, antientropy_repairs = %d",
		rt.Metrics().Counter("router_mutate_partial"), rt.Metrics().Counter("antientropy_repairs"))
	converged := func() bool {
		want := digestOf(t, wks[0])
		for _, wk := range wks[1:] {
			if digestOf(t, wk) != want {
				return false
			}
		}
		return true
	}
	waitFor(t, "equal replica digests", 10*time.Second, converged)

	// Each replica, asked directly, answers at one epoch with sums that
	// agree to the solver's slack.
	var ref *serve.QueryResponse
	for i := range wks {
		resp, code := queryVia(t, "http://"+addrs[i])
		if resp == nil {
			t.Fatalf("direct query of replica %d: HTTP %d", i, code)
		}
		if ref == nil {
			ref = resp
			continue
		}
		if resp.Epoch != ref.Epoch {
			t.Errorf("replica %d answers epoch %d, replica 0 epoch %d", i, resp.Epoch, ref.Epoch)
		}
		if diff := math.Abs(resp.Sum - ref.Sum); diff > sumTolerance*max(1, math.Abs(resp.Sum), math.Abs(ref.Sum)) {
			t.Errorf("replica %d answer sum %g, replica 0 %g", i, resp.Sum, ref.Sum)
		}
	}

	// Crash replay: two acknowledged writes past every replica's snapshot,
	// so the victim's WAL is the only local record of them.
	for _, wk := range wks {
		if err := wk.PersistSnapshots(); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []serve.EdgeJSON{{Src: 1, Dst: 2, Weight: 0.5}, {Src: 3, Dst: 4, Weight: 0.5}} {
		if code, body := postJSON(t, routerURL+"/v1/mutate", serve.MutateRequest{Graph: "g", Edges: []serve.EdgeJSON{e}}); code != http.StatusOK {
			t.Fatalf("write through the router: HTTP %d: %s", code, body)
		}
	}
	crash(t, wks[2])
	wks[2] = startFleetWorker(t, routerURL, addrs[2], func(c *WorkerConfig) { dirs(2, c) })
	m := wks[2].Server().Metrics()
	if got := m.Counter("wal_replayed_batches"); got == 0 {
		t.Fatal("replacement replayed no WAL batches")
	}
	waitFor(t, "the replacement's digest to match its peers'", 10*time.Second, converged)
	if resp, code := queryVia(t, "http://"+addrs[2]); resp == nil {
		t.Fatalf("query of the replacement: HTTP %d", code)
	}
	if got := m.Counter("query_cold_solves"); got != 0 {
		t.Errorf("replacement cold-solved %d times, want 0", got)
	}
}
