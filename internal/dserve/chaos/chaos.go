// Package chaos is a seeded deterministic fault proxy for the
// distributed serving tier's router↔worker HTTP traffic. It is a test
// transport: Wrap installs it into an http.Client, which a test hands to
// dserve through RouterConfig.Client or WorkerConfig.Client. It injects
// drop (fail a request before it leaves), delay (sleep before sending),
// truncate (cut the response body short), and partition (fail every
// request to a named host until healed) faults.
//
// # Determinism
//
// Every rate-based decision is a pure function of (Config.Seed, fault
// point, call sequence number): each point keeps its own counter and
// hashes (seed, point, counter) through a SplitMix64 finalizer, so probing
// one point never perturbs another. Two runs with the same seed and the
// same request sequence inject the identical fault log; the determinism
// tests rely on it. Partitions are not rate-based; tests flip them
// explicitly with Partition, Heal and HealAll.
package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
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

// Event is one injected fault, in injection order. Seq is global across
// points, so two event logs compare positionally.
type Event struct {
	Seq   uint64
	Point string
	Host  string
}

// maxEvents bounds the retained event log; injections past it are not
// retained.
const maxEvents = 65536

// truncateAfterBytes is how much of a truncated response body survives.
const truncateAfterBytes = 64

// Proxy injects faults in front of real transports. Build with New,
// install with Wrap.
type Proxy struct {
	cfg Config

	mu    sync.Mutex
	seq   [numPoints]uint64 // per-point decision counters
	part  map[string]bool
	log   []Event
	evSeq uint64
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
	return &Proxy{cfg: cfg, part: make(map[string]bool)}, nil
}

// Wrap returns a copy of c (nil means a zero client) whose transport
// injects the proxy's faults in front of c's own transport
// (http.DefaultTransport when unset). Every client wrapped by one proxy
// keeps its own next hop and shares the proxy's fault streams,
// partitions and event log.
func (p *Proxy) Wrap(c *http.Client) *http.Client {
	out := &http.Client{}
	if c != nil {
		*out = *c
	}
	next := out.Transport
	if next == nil {
		next = http.DefaultTransport
	}
	out.Transport = transport{p: p, next: next}
	return out
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
func (p *Proxy) Partition(host string) {
	p.mu.Lock()
	p.part[hostOf(host)] = true
	p.mu.Unlock()
}

// Heal lifts a partition.
func (p *Proxy) Heal(host string) {
	p.mu.Lock()
	delete(p.part, hostOf(host))
	p.mu.Unlock()
}

// HealAll lifts every partition.
func (p *Proxy) HealAll() {
	p.mu.Lock()
	p.part = make(map[string]bool)
	p.mu.Unlock()
}

// Events returns a copy of the injected-fault log, in injection order.
func (p *Proxy) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.log...)
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
	return p.uniform(pt) < rate
}

// uniform returns point pt's next draw in [0,1): the SplitMix64 finalizer
// (Steele et al., "Fast Splittable Pseudorandom Number Generators") over
// the seed, the point and the point's call number. The caller holds mu.
func (p *Proxy) uniform(pt point) float64 {
	x := p.cfg.Seed ^ uint64(pt)<<56 ^ p.seq[pt]
	p.seq[pt]++
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53) // 53 high bits
}

// record logs one injected fault.
func (p *Proxy) record(pt point, host string) {
	p.mu.Lock()
	p.evSeq++
	if len(p.log) < maxEvents {
		p.log = append(p.log, Event{Seq: p.evSeq, Point: pointNames[pt], Host: host})
	}
	p.mu.Unlock()
}

// transport is one wrapped client's transport: the shared proxy in front
// of that client's own next hop.
type transport struct {
	p    *Proxy
	next http.RoundTripper
}

// RoundTrip injects faults around one request. Partition and drop fail
// the request with a transport error (the router's retry/health machinery
// sees exactly what a dead worker looks like); delay sleeps before
// sending; truncate cuts the response body after truncateAfterBytes so
// the reader gets io.ErrUnexpectedEOF mid-decode.
func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p, host := t.p, req.URL.Host
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
	resp, err := t.next.RoundTrip(req)
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
