package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// burst sends n serial GETs through client and returns per-request
// outcomes ("ok", "err", or "short" for a truncated body).
func burst(t *testing.T, client *http.Client, url string, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		resp, err := client.Get(url)
		if err != nil {
			out[i] = "err"
			continue
		}
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case rerr != nil:
			out[i] = "short"
		default:
			out[i] = "ok"
		}
	}
	return out
}

// bigBodyServer answers every request with a body larger than the
// truncation cap, so truncate faults are observable as read errors.
func bigBodyServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("x", 4096))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestDeterminism pins the core contract: two proxies with the same seed
// fed the same serial request sequence inject the identical fault log,
// while a different seed diverges.
func TestDeterminism(t *testing.T) {
	ts := bigBodyServer(t)
	cfg := Config{Seed: 7, DropRate: 0.3, DelayRate: 0.2, TruncateRate: 0.3, Delay: time.Microsecond}

	run := func(seed uint64) ([]string, []Event) {
		p, err := New(Config{Seed: seed, DropRate: cfg.DropRate, DelayRate: cfg.DelayRate,
			TruncateRate: cfg.TruncateRate, Delay: cfg.Delay})
		if err != nil {
			t.Fatal(err)
		}
		outcomes := burst(t, p.Wrap(nil), ts.URL, 64)
		return outcomes, p.Events()
	}

	out1, ev1 := run(cfg.Seed)
	out2, ev2 := run(cfg.Seed)
	if fmt.Sprint(out1) != fmt.Sprint(out2) {
		t.Fatalf("same seed, different outcomes:\n%v\n%v", out1, out2)
	}
	if len(ev1) == 0 {
		t.Fatal("no faults injected at 30% rates over 64 requests")
	}
	if fmt.Sprint(ev1) != fmt.Sprint(ev2) {
		t.Fatalf("same seed, different fault logs:\n%v\n%v", ev1, ev2)
	}

	_, ev3 := run(cfg.Seed + 1)
	if fmt.Sprint(ev1) == fmt.Sprint(ev3) {
		t.Fatal("different seeds injected the identical fault log")
	}
}

// TestDisabledPassthrough pins that a zero-rate proxy injects nothing.
func TestDisabledPassthrough(t *testing.T) {
	ts := bigBodyServer(t)
	p, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range burst(t, p.Wrap(nil), ts.URL, 32) {
		if got != "ok" {
			t.Fatalf("zero-rate proxy faulted request %d: %s", i, got)
		}
	}
	if ev := p.Events(); len(ev) != 0 {
		t.Fatalf("zero-rate proxy logged %d events", len(ev))
	}
}

// TestPartitionHeal flips a host partition on and off and checks both the
// request outcomes and the event log.
func TestPartitionHeal(t *testing.T) {
	ts := bigBodyServer(t)
	p, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := p.Wrap(nil)

	// Partition accepts the full URL form the router knows workers by.
	p.Partition(ts.URL)
	if _, err := client.Get(ts.URL); err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("partitioned request err = %v, want partition error", err)
	}
	host := strings.TrimPrefix(ts.URL, "http://")
	if ev := p.Events(); len(ev) != 1 || ev[0].Point != "partition" || ev[0].Host != host {
		t.Fatalf("partition block logged as %+v, want one partition event for %s", ev, host)
	}

	p.Heal(ts.URL)
	if resp, err := client.Get(ts.URL); err != nil {
		t.Fatalf("healed request failed: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	p.Partition(ts.URL)
	p.HealAll()
	if resp, err := client.Get(ts.URL); err != nil {
		t.Fatalf("request after HealAll failed: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestTruncateFault forces a truncate and checks the reader sees an
// unexpected EOF after the cap, not a clean body.
func TestTruncateFault(t *testing.T) {
	ts := bigBodyServer(t)
	p, err := New(Config{Seed: 1, TruncateRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Wrap(nil).Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(resp.Body)
	if rerr != io.ErrUnexpectedEOF {
		t.Fatalf("read err = %v, want io.ErrUnexpectedEOF", rerr)
	}
	if len(data) == 0 || len(data) > truncateAfterBytes {
		t.Fatalf("read %d bytes through the truncated body, cap is %d", len(data), truncateAfterBytes)
	}
}

// countingTransport counts the requests that reach it, then forwards them.
type countingTransport struct {
	n    atomic.Int64
	next http.RoundTripper
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(req)
}

// TestWrapKeepsEachClientsNextHop pins that one proxy wrapping two
// clients sends each client's requests through that client's own
// transport, while both share the proxy's partitions and event log.
func TestWrapKeepsEachClientsNextHop(t *testing.T) {
	ts := bigBodyServer(t)
	p, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := &countingTransport{next: http.DefaultTransport}
	b := &countingTransport{next: http.DefaultTransport}
	clientA := p.Wrap(&http.Client{Transport: a})
	clientB := p.Wrap(&http.Client{Transport: b})

	if got := burst(t, clientA, ts.URL, 1); got[0] != "ok" {
		t.Fatalf("client A request: %s", got[0])
	}
	if a.n.Load() != 1 || b.n.Load() != 0 {
		t.Fatalf("client A's request reached a=%d b=%d, want a=1 b=0", a.n.Load(), b.n.Load())
	}
	if got := burst(t, clientB, ts.URL, 1); got[0] != "ok" {
		t.Fatalf("client B request: %s", got[0])
	}
	if a.n.Load() != 1 || b.n.Load() != 1 {
		t.Fatalf("client B's request reached a=%d b=%d, want a=1 b=1", a.n.Load(), b.n.Load())
	}

	p.Partition(ts.URL)
	for _, c := range []*http.Client{clientA, clientB} {
		if _, err := c.Get(ts.URL); err == nil {
			t.Fatal("request through a partition succeeded")
		}
	}
	if ev := p.Events(); len(ev) != 2 {
		t.Fatalf("shared event log holds %d events, want 2", len(ev))
	}
}
