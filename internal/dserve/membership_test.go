package dserve

import (
	"errors"
	"reflect"
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
