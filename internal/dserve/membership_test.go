package dserve

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"graphpulse/internal/serve"
)

// The membership state machine runs on synthetic times: no HTTP, no
// sleeps. t0 is an arbitrary origin; every step names its offset from it.
var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

const (
	wA = "http://a:1"
	wB = "http://b:1"
	wC = "http://c:1"
)

func testMembership(seed uint64, workers ...string) *membership {
	cfg := RouterConfig{
		Replication:   2,
		ProbeInterval: time.Second,
		FailAfter:     3,
		BackoffBase:   400 * time.Millisecond,
		BackoffMax:    time.Second,
		Seed:          seed,
	}.withDefaults()
	m := newMembership(cfg, serve.NewMetricsCatalog(routerCounters, nil), func(string, ...any) {})
	for _, u := range workers {
		m.add(u, nil)
	}
	return m
}

// TestMembershipStateMachine drives one worker through a scripted life and
// checks every field the transitions own after each step.
func TestMembershipStateMachine(t *testing.T) {
	const (
		probeFail = iota // failed health probe
		reqFail          // failed request-path attempt
		probeOK          // passing probe (or successful write)
		register         // registration heartbeat
	)
	type step struct {
		name    string
		op      int
		at      time.Duration // offset from t0
		healthy bool
		fails   int
		backoff time.Duration
		// sched is the expected next probe: at+sched exactly for a healthy
		// worker, within [at+sched, at+1.25·sched] for an ejected one; -1
		// means the step must leave the schedule where it was.
		sched time.Duration
	}
	const ms = time.Millisecond
	steps := []step{
		{"first probe failure keeps it in rotation", probeFail, 0, true, 1, 0, time.Second},
		{"request failure counts but leaves the schedule", reqFail, 100 * ms, true, 2, 0, -1},
		{"FailAfter-th failure ejects onto the base backoff", probeFail, 1000 * ms, false, 3, 400 * ms, 400 * ms},
		{"request failure on an ejected worker does not double", reqFail, 1100 * ms, false, 4, 400 * ms, -1},
		{"failed re-probe doubles", probeFail, 1500 * ms, false, 5, 800 * ms, 800 * ms},
		{"doubling is capped at BackoffMax", probeFail, 2500 * ms, false, 6, time.Second, time.Second},
		{"and stays capped", probeFail, 4000 * ms, false, 7, time.Second, time.Second},
		{"passing probe readmits and clears", probeOK, 5500 * ms, true, 0, 0, time.Second},
		{"request failures alone reach FailAfter", reqFail, 5600 * ms, true, 1, 0, -1},
		{"second", reqFail, 5700 * ms, true, 2, 0, -1},
		{"third ejects and schedules the re-probe itself", reqFail, 5800 * ms, false, 3, 400 * ms, 400 * ms},
		{"registration readmits", register, 6000 * ms, true, 0, 0, time.Second},
	}
	m := testMembership(1, wA)
	w := m.workers[wA]
	boom := errors.New("boom")
	for _, s := range steps {
		now, before := t0.Add(s.at), w.nextDue
		switch s.op {
		case probeFail, reqFail:
			m.fail(wA, boom, s.op == probeFail, now)
		case probeOK:
			m.ok(wA, now)
		case register:
			m.register(wA, []string{"g"}, now)
		}
		if w.healthy != s.healthy || w.fails != s.fails || w.backoff != s.backoff {
			t.Fatalf("%s: healthy=%v fails=%d backoff=%v, want %v %d %v",
				s.name, w.healthy, w.fails, w.backoff, s.healthy, s.fails, s.backoff)
		}
		if wantErr := s.fails > 0; (w.lastErr == "boom") != wantErr {
			t.Fatalf("%s: lastErr=%q with fails=%d", s.name, w.lastErr, w.fails)
		}
		lo := now.Add(s.sched)
		hi := lo
		if !s.healthy {
			hi = lo.Add(s.sched / 4)
		}
		switch {
		case s.sched < 0 && !w.nextDue.Equal(before):
			t.Fatalf("%s: schedule moved from %v to %v", s.name, before, w.nextDue)
		case s.sched >= 0 && (w.nextDue.Before(lo) || w.nextDue.After(hi)):
			t.Fatalf("%s: next probe at %v, want within [%v, %v]", s.name, w.nextDue, lo, hi)
		}
		// due() is the same schedule seen from outside.
		if got := len(m.due(w.nextDue.Add(-1))); got != 0 {
			t.Fatalf("%s: due one tick early", s.name)
		}
		if got := m.due(w.nextDue); len(got) != 1 || got[0] != wA {
			t.Fatalf("%s: due(nextDue) = %v, want [%s]", s.name, got, wA)
		}
	}
	for name, want := range map[string]int64{
		"router_probe_failures":    5,
		"router_worker_ejected":    2,
		"router_worker_readmitted": 2,
	} {
		if got := m.metrics.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Failures and successes against an unknown worker are ignored.
	m.fail("http://nobody:1", boom, true, t0)
	m.ok("http://nobody:1", t0)
	if len(m.workers) != 1 {
		t.Fatalf("unknown worker was added: %v", m.snapshot())
	}
}

// TestMembershipSeededSchedule: the same Seed reproduces the same re-probe
// schedule across a fleet-wide outage, workers of one outage are spread
// rather than in lockstep, and another Seed gives another schedule.
func TestMembershipSeededSchedule(t *testing.T) {
	schedule := func(seed uint64) []time.Time {
		m := testMembership(seed, wA, wB, wC)
		var out []time.Time
		for round := 0; round < 6; round++ {
			now := t0.Add(time.Duration(round) * time.Second)
			for _, u := range []string{wA, wB, wC} {
				m.fail(u, errors.New("outage"), true, now)
				out = append(out, m.workers[u].nextDue)
			}
		}
		return out
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different re-probe schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the identical re-probe schedule")
	}
	last := a[len(a)-3:]
	if last[0].Equal(last[1]) && last[1].Equal(last[2]) {
		t.Fatalf("ejected workers re-probe in lockstep at %v", last[0])
	}
}

// TestMembershipRouting pins what the router reads: the replica set is
// stable under health flips and drains, and live/peers apply the one
// healthy-and-not-draining predicate.
func TestMembershipRouting(t *testing.T) {
	m := testMembership(1)
	for _, u := range []string{wA, wB, wC} {
		if peers := m.register(u, []string{"g"}, t0); len(peers["g"]) != len(m.workers)-1 {
			t.Fatalf("registering %s returned peers %v with %d workers known", u, peers, len(m.workers))
		}
	}
	m.register(wC, []string{"other"}, t0) // C re-registers without g
	all, live := m.replicas("g")
	if len(all) != 2 || !reflect.DeepEqual(all, live) {
		t.Fatalf("replicas(g) = %v live %v, want both of A and B live", all, live)
	}
	if got := m.hostedGraphs(); !reflect.DeepEqual(got, []string{"g", "other"}) {
		t.Fatalf("hostedGraphs = %v", got)
	}

	for i := 0; i < m.cfg.FailAfter; i++ {
		m.fail(all[0], errors.New("down"), false, t0)
	}
	if !m.drain(all[1], true) {
		t.Fatal("drain of a known worker reported unknown")
	}
	if m.drain("http://nobody:1", true) {
		t.Fatal("drain of an unknown worker reported known")
	}
	all2, live2 := m.replicas("g")
	if !reflect.DeepEqual(all2, all) || len(live2) != 0 {
		t.Fatalf("after eject+drain replicas(g) = %v live %v, want %v and none", all2, live2, all)
	}
	if got := m.live(); !reflect.DeepEqual(got, []string{wC}) {
		t.Fatalf("live = %v, want only %s", got, wC)
	}
	if donors := m.peers("g", ""); len(donors) != 0 {
		t.Fatalf("ejected and draining workers offered as donors: %v", donors)
	}

	m.drain(all[1], false)
	m.ok(all[0], t0)
	if _, live3 := m.replicas("g"); !reflect.DeepEqual(live3, all) {
		t.Fatalf("after undrain+readmit live = %v, want %v", live3, all)
	}
	// A heartbeat lifts a drain: the restarted worker announces itself.
	m.drain(wA, true)
	m.register(wA, []string{"g"}, t0)
	for _, info := range m.snapshot() {
		if !info.Healthy || info.Draining {
			t.Fatalf("worker %+v not live after re-registration", info)
		}
	}
}

func placementWorkers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

// replicaSets maps each of graph-0 … graph-(n-1) to its replica set.
func replicaSets(m *membership, n int) map[string][]string {
	out := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		g := fmt.Sprintf("graph-%d", i)
		out[g], _ = m.replicas(g)
	}
	return out
}

// without returns set with u left out.
func without(set []string, u string) []string {
	var out []string
	for _, v := range set {
		if v != u {
			out = append(out, v)
		}
	}
	return out
}

// TestPlacementSets: the order is a function of the worker URLs and the
// graph alone (not of insertion order or of which membership asks), and a
// replica set holds min(Replication, hosts) distinct workers, none of
// which fails to host the graph.
func TestPlacementSets(t *testing.T) {
	ws := placementWorkers(5)
	m := testMembership(1, ws...)
	m.cfg.Replication = 3
	reversed := testMembership(2)
	reversed.cfg.Replication = 3
	for i := len(ws) - 1; i >= 0; i-- {
		reversed.add(ws[i], nil)
	}
	if a, b := replicaSets(m, 200), replicaSets(reversed, 200); !reflect.DeepEqual(a, b) {
		t.Fatal("placement depends on the order workers joined")
	}

	m.register(ws[0], []string{"g", "only-a"}, t0)
	m.register(ws[1], []string{"g", "other"}, t0)
	for _, c := range []struct {
		graph string
		want  int
	}{{"g", 3}, {"only-a", 3}, {"other", 3}} {
		all, _ := m.replicas(c.graph)
		if len(all) != c.want {
			t.Errorf("replicas(%q) = %v, want %d workers", c.graph, all, c.want)
		}
		seen := map[string]bool{}
		for _, u := range all {
			if seen[u] || !m.workers[u].hosts(c.graph) {
				t.Errorf("replicas(%q) = %v: %s repeated or not a host", c.graph, all, u)
			}
			seen[u] = true
		}
	}
	m.cfg.Replication = 9
	if all, _ := m.replicas("g"); len(all) != 5 {
		t.Errorf("replication 9 over 5 hosts placed %v", all)
	}
	if all, _ := m.replicas("only-a"); len(all) != 4 || slices.Contains(all, ws[1]) {
		t.Errorf("replicas(only-a) = %v, want the four workers other than %s", all, ws[1])
	}
	// Per request: the ranking, the set and its live subset.
	if n := testing.AllocsPerRun(100, func() { m.replicas("g") }); n > 3 {
		t.Errorf("replicas allocates %.0f objects per call, want at most 3", n)
	}
}

// TestPlacementMovement pins rendezvous hashing's minimal movement on 8
// workers at R = 3: removing a worker changes only the sets that held it,
// and adding one changes a set only by inserting the newcomer.
func TestPlacementMovement(t *testing.T) {
	const graphs = 2000
	ws := placementWorkers(9)
	build := func(members []string) map[string][]string {
		m := testMembership(1, members...)
		m.cfg.Replication = 3
		return replicaSets(m, graphs)
	}
	before := build(ws[:8])

	gone := ws[3]
	moved := 0
	for g, set := range build(without(ws[:8], gone)) {
		old := before[g]
		if !slices.Contains(old, gone) {
			if !reflect.DeepEqual(set, old) {
				t.Fatalf("%s: set %v became %v though %s was not in it", g, old, set, gone)
			}
			continue
		}
		moved++
		if kept := without(old, gone); !reflect.DeepEqual(set[:len(kept)], kept) {
			t.Fatalf("%s: removing %s turned %v into %v", g, gone, old, set)
		}
	}
	if moved == 0 {
		t.Error("the removed worker held no replica")
	}

	newcomer := ws[8]
	moved = 0
	for g, set := range build(ws) {
		old := before[g]
		if !slices.Contains(set, newcomer) {
			if !reflect.DeepEqual(set, old) {
				t.Fatalf("%s: set %v became %v without %s", g, old, set, newcomer)
			}
			continue
		}
		moved++
		if rest := without(set, newcomer); !reflect.DeepEqual(rest, old[:len(rest)]) {
			t.Fatalf("%s: adding %s turned %v into %v", g, newcomer, old, set)
		}
	}
	if moved == 0 {
		t.Error("the new worker was placed nowhere")
	}
}

// TestPlacementSpread: over graph-0 … graph-9999 on 8 workers, every
// worker is primary for 1,250 graphs ± 10 %.
func TestPlacementSpread(t *testing.T) {
	const graphs, workers = 10000, 8
	m := testMembership(1, placementWorkers(workers)...)
	primary := map[string]int{}
	for _, set := range replicaSets(m, graphs) {
		primary[set[0]]++
	}
	for _, u := range placementWorkers(workers) {
		if n := primary[u]; n < 1125 || n > 1375 {
			t.Errorf("%s is primary for %d graphs, want 1250 ± 10 %%", u, n)
		}
	}
}

// TestRegisterAcksReplicasFirst: with R = 2 and three workers hosting g, a
// replica's registration ack names the other replica first, so a
// rejoining replica catches up from the peer that took its writes rather
// than from a host outside the replica set.
func TestRegisterAcksReplicasFirst(t *testing.T) {
	m := testMembership(1)
	for _, u := range []string{wA, wB, wC} {
		m.register(u, []string{"g"}, t0)
	}
	all, _ := m.replicas("g")
	if len(all) != 2 || !slices.Contains(all, wC) {
		t.Fatalf("replicas(g) = %v, want 2 including %s, so that URL order would ack the third host first", all, wC)
	}
	for i, u := range all {
		if peers := m.register(u, []string{"g"}, t0)["g"]; len(peers) != 2 || peers[0] != all[1-i] {
			t.Errorf("replica %s acked peers %v, want %s first", u, peers, all[1-i])
		}
	}
}

// BenchmarkReplicas is the router's per-request placement cost: 3 workers
// hosting the graph, R = 3.
func BenchmarkReplicas(b *testing.B) {
	m := testMembership(1, wA, wB, wC)
	m.cfg.Replication = 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.replicas("g")
	}
}
