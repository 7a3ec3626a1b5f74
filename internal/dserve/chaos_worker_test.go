package dserve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"graphpulse/internal/dserve/chaos"
)

// chaosRepairEvents runs one chaos-wrapped worker through a fixed sequence
// of anti-entropy repairs against the donor and returns the injected fault
// log.
func chaosRepairEvents(t *testing.T, seed uint64, donorURL string) []chaos.Event {
	t.Helper()
	proxy, err := chaos.New(chaos.Config{Seed: seed, DropRate: 0.5, TruncateRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	wk, _ := newWorkerNode(t, func(c *WorkerConfig) {
		c.Client = proxy.Wrap(&http.Client{Timeout: 30 * time.Second})
	})
	for i := 0; i < 25; i++ {
		// Repairs fail under injected drops/truncations; the sequence of
		// outbound requests (WAL-tail fetch, then snapshot fallback) is what
		// is being pinned, not the outcomes.
		wk.repairFrom(context.Background(), "g", donorURL) //nolint:errcheck
	}
	return proxy.Events()
}

// TestWorkerChaosDeterminism pins that the chaos proxy installed as the
// worker's peer client (snapshot fetch + WAL repair traffic) injects an
// identical fault log for identical (seed, request sequence) pairs.
func TestWorkerChaosDeterminism(t *testing.T) {
	_, tsA := newWorkerNode(t, nil)
	solveAndMutate(t, tsA.URL)

	ev1 := chaosRepairEvents(t, 7, tsA.URL)
	ev2 := chaosRepairEvents(t, 7, tsA.URL)
	if len(ev1) == 0 {
		t.Fatal("no faults injected at drop=0.5/truncate=0.3 over 25 repairs")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("same seed injected %d vs %d faults", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}

	ev3 := chaosRepairEvents(t, 8, tsA.URL)
	same := len(ev1) == len(ev3)
	if same {
		for i := range ev1 {
			if ev1[i].Point != ev3[i].Point {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical fault log")
	}
}
