// Package chaos is a seeded deterministic fault proxy for the
// distributed serving tier's router↔worker HTTP traffic — the serving
// analogue of internal/sim/fault. It wraps the router's HTTP client
// transport and injects drop (fail a request before it leaves), delay
// (sleep before sending), truncate (cut the response body short), and
// partition (fail every request to a named host until healed) faults.
//
// # Determinism
//
// Like the simulator fault injector, every rate-based decision is a pure
// function of (Config.Seed, fault point, call sequence number): each
// point keeps its own counter and hashes (seed, point, counter) through a
// splitmix64 finalizer (internal/seeded, shared with it). Two runs with the same seed and the same request
// sequence inject the identical fault log — the chaos-smoke CI stage and
// the determinism test rely on it. Partitions are not rate-based; they
// are flipped explicitly (Partition/Heal) by tests and the router's
// POST /internal/chaos control endpoint.
//
// A nil *Proxy is the disabled proxy: Wrap returns the client unchanged
// and every method is a nil-safe no-op, so chaos off is byte-identical
// to chaos never having existed.
package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphpulse/internal/seeded"
)

// Config holds the injection rates. The zero value injects nothing (but
// a Proxy built from it still supports explicit partitions).
type Config struct {
	// Seed keys the deterministic decision streams.
	Seed uint64
	// DropRate is the probability a request fails before being sent.
	DropRate float64
	// DelayRate is the probability a request sleeps Delay before sending.
	DelayRate float64
	// TruncateRate is the probability a response body is cut short.
	TruncateRate float64
	// Delay is the injected latency for delay faults (default 25ms).
	Delay time.Duration
}

// Validate rejects rates outside [0,1] and negative delays.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{{"drop", c.DropRate}, {"delay", c.DelayRate}, {"truncate", c.TruncateRate}} {
		if r.rate < 0 || r.rate > 1 {
			return fmt.Errorf("chaos: %s rate %g outside [0,1]", r.name, r.rate)
		}
	}
	if c.Delay < 0 {
		return fmt.Errorf("chaos: negative delay %v", c.Delay)
	}
	return nil
}

// ParseSpec parses the compact CLI form, e.g.
// "drop=0.01,delay=0.05,delay-ms=20,truncate=0.001,seed=7". An empty
// spec returns the zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	err := seeded.ParseSpec("chaos", spec, &c.Seed, func(key, val string) error {
		if key == "delay-ms" {
			ms, err := strconv.ParseFloat(val, 64)
			if err != nil || ms < 0 {
				return fmt.Errorf("chaos: bad delay-ms %q", val)
			}
			c.Delay = time.Duration(ms * float64(time.Millisecond))
			return nil
		}
		field := map[string]*float64{"drop": &c.DropRate, "delay": &c.DelayRate, "truncate": &c.TruncateRate}[key]
		if field == nil {
			return fmt.Errorf("chaos: unknown spec key %q", key)
		}
		r, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("chaos: bad %s rate %q: %v", key, val, err)
		}
		*field = r
		return nil
	})
	if err != nil {
		return c, err
	}
	return c, c.Validate()
}

// point identifies one fault point; each draws from its own decision
// stream.
type point int

const (
	pointDrop point = iota
	pointDelay
	pointTruncate
	pointPartition
	numPoints
)

var pointNames = [numPoints]string{"drop", "delay", "truncate", "partition"}

// counterNames are the metric counters a sink receives, in point order.
var counterNames = [numPoints]string{
	"chaos_drops", "chaos_delays", "chaos_truncates", "chaos_partition_blocks",
}

// CounterNames lists the metric counter names a Proxy reports through its
// sink — the router registers them into its catalogue.
func CounterNames() []string {
	return append([]string(nil), counterNames[:]...)
}

// Event is one injected fault, in injection order. Seq is global across
// points, so two event logs compare positionally.
type Event struct {
	Seq   uint64 `json:"seq"`
	Point string `json:"point"`
	Host  string `json:"host"`
}

// maxEvents bounds the retained event log; injections past it still
// count (and reach the sink) but are not retained.
const maxEvents = 65536

// truncateAfterBytes is how much of a truncated response body survives.
const truncateAfterBytes = 64

// Proxy is an http.RoundTripper injecting faults in front of a real
// transport. Build with New, install with Wrap.
type Proxy struct {
	cfg  Config
	next http.RoundTripper

	mu    sync.Mutex
	draws seeded.Stream
	part  map[string]bool
	log   []Event
	evSeq uint64
	sink  func(name string, delta int64)
}

// New validates cfg and returns a Proxy. The proxy is inert until Wrap
// installs it into a client.
func New(cfg Config) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 25 * time.Millisecond
	}
	return &Proxy{cfg: cfg, draws: seeded.New(cfg.Seed, int(numPoints)), part: make(map[string]bool)}, nil
}

// Wrap returns a copy of c whose transport routes through the proxy. A
// nil proxy returns c unchanged — chaos disabled is byte-identical to
// chaos absent.
func (p *Proxy) Wrap(c *http.Client) *http.Client {
	if p == nil {
		return c
	}
	out := &http.Client{}
	p.next = http.DefaultTransport
	if c != nil {
		*out = *c
		if c.Transport != nil {
			p.next = c.Transport
		}
	}
	out.Transport = p
	return out
}

// SetSink installs the metric sink (e.g. a serve.Metrics Add method);
// each injected fault reports 1 to its counter name. Nil-safe.
func (p *Proxy) SetSink(fn func(name string, delta int64)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.sink = fn
	p.mu.Unlock()
}

// hostOf extracts the host:port a partition is keyed on, accepting both
// bare hosts and full URLs.
func hostOf(s string) string {
	s = strings.TrimSpace(s)
	if strings.Contains(s, "://") {
		if u, err := url.Parse(s); err == nil && u.Host != "" {
			return u.Host
		}
	}
	return strings.TrimSuffix(s, "/")
}

// Partition fails every future request to the host (or URL) until Heal.
// Nil-safe.
func (p *Proxy) Partition(host string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.part[hostOf(host)] = true
	p.mu.Unlock()
}

// Heal lifts a partition. Nil-safe.
func (p *Proxy) Heal(host string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	delete(p.part, hostOf(host))
	p.mu.Unlock()
}

// HealAll lifts every partition. Nil-safe.
func (p *Proxy) HealAll() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.part = make(map[string]bool)
	p.mu.Unlock()
}

// Partitioned lists the currently partitioned hosts, sorted. Nil-safe.
func (p *Proxy) Partitioned() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.part))
	for h := range p.part {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Events returns a copy of the injected-fault log, in injection order.
// Nil-safe.
func (p *Proxy) Events() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.log...)
}

// EventCount reports the total injected faults (including any past the
// retained-log cap). Nil-safe.
func (p *Proxy) EventCount() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evSeq
}

// decide reports whether the next opportunity at point pt faults,
// advancing pt's deterministic stream.
func (p *Proxy) decide(pt point) bool {
	var rate float64
	switch pt {
	case pointDrop:
		rate = p.cfg.DropRate
	case pointDelay:
		rate = p.cfg.DelayRate
	case pointTruncate:
		rate = p.cfg.TruncateRate
	}
	if rate <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draws.Uniform(int(pt)) < rate
}

// record logs one injected fault and reports it to the sink.
func (p *Proxy) record(pt point, host string) {
	p.mu.Lock()
	p.evSeq++
	if len(p.log) < maxEvents {
		p.log = append(p.log, Event{Seq: p.evSeq, Point: pointNames[pt], Host: host})
	}
	sink := p.sink
	p.mu.Unlock()
	if sink != nil {
		sink(counterNames[pt], 1)
	}
}

// RoundTrip injects faults around one request. Partition and drop fail
// the request with a transport error (the router's retry/health machinery
// sees exactly what a dead worker looks like); delay sleeps before
// sending; truncate cuts the response body after truncateAfterBytes so
// the reader gets io.ErrUnexpectedEOF mid-decode.
func (p *Proxy) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	p.mu.Lock()
	blocked := p.part[host]
	p.mu.Unlock()
	if blocked {
		p.record(pointPartition, host)
		return nil, fmt.Errorf("chaos: host %s is partitioned", host)
	}
	if p.decide(pointDrop) {
		p.record(pointDrop, host)
		return nil, fmt.Errorf("chaos: dropped request to %s", host)
	}
	if p.decide(pointDelay) {
		p.record(pointDelay, host)
		time.Sleep(p.cfg.Delay)
	}
	resp, err := p.next.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if p.decide(pointTruncate) {
		p.record(pointTruncate, host)
		resp.Body = &truncatedBody{rc: resp.Body, remaining: truncateAfterBytes}
	}
	return resp, nil
}

// truncatedBody serves a bounded prefix of the real body, then fails the
// read the way a cut connection would.
type truncatedBody struct {
	rc        io.ReadCloser
	remaining int
}

func (t *truncatedBody) Read(b []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(b) > t.remaining {
		b = b[:t.remaining]
	}
	n, err := t.rc.Read(b)
	t.remaining -= n
	if err == io.EOF {
		// The upstream body really ended inside the cap: pass EOF through.
		return n, err
	}
	if t.remaining <= 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.rc.Close() }
