package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphpulse/internal/serve"
)

// Latency limits. A request over its limit counts as failed when the phase
// it belongs to missed the limit, which missedLimit judges on the median
// slice: the reference box stalls for a second or more at a time, which at
// 800 requests a second is a thousand late requests in one slice, and
// counting those would fail correct runs. Code that is too slow is too slow
// in every slice. client.over_limit_share reports the plain share.
const (
	limitCached = 50 * time.Millisecond
	limitCold   = 2 * time.Second
	limitWarm   = time.Second // mutate ack and warm re-query
)

// client is the benchmark's own load generator: conns keep-alive
// connections to one process-local listener.
type client struct {
	http  *http.Client
	conns int
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, conns: conns}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one HTTP exchange: status 0 means a transport error.
type reply struct {
	status int
	body   []byte
}

func (c *client) post(url string, body []byte) reply {
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}
	}
	return reply{status: resp.StatusCode, body: b}
}

func (c *client) get(url string, into any) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// queryVia posts q and decodes the answer.
func (c *client) queryVia(base, graphName string, q query) (*serve.QueryResponse, time.Duration, error) {
	body, err := json.Marshal(q.request(graphName))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	r := c.post(base+"/v1/query", body)
	lat := time.Since(start)
	if r.status != http.StatusOK {
		return nil, lat, fmt.Errorf("query %s via %s: status %d: %s", q.alg, base, r.status, r.body)
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, lat, err
	}
	return &resp, lat, nil
}

// op is one generated request: where it goes, what it carries, and its
// class for per-class latency.
type op struct {
	url   string
	body  []byte
	class int
}

// keptReply is a reply kept for the correctness check after the phase.
type keptReply struct {
	index int
	body  []byte
}

// load describes one phase of generated traffic. gen must be safe for
// concurrent use and depend only on the index, so the request list is the
// same for every run at one seed.
type load struct {
	gen func(i int) op
	// Exactly one of length and count bounds the phase.
	length time.Duration
	count  int
	// rate > 0 makes the phase open loop: request i is due at i/rate and its
	// latency is timed from that instant, however late it was sent.
	rate float64
	// keepEvery keeps the reply of every keepEvery-th request for checking.
	keepEvery int
}

type phase struct {
	samples []sample
	kept    []keptReply
	length  time.Duration
	failed  int // transport errors, refusals and non-200 answers
}

// run drives the phase over the client's connections. Nothing is dropped:
// an open-loop request that cannot be sent on time is sent late and the
// delay counts in its latency.
func (c *client) run(l load) phase {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		out   phase
		wg    sync.WaitGroup
		start = time.Now()
	)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var kept []keptReply
			failed := 0
			for {
				i := int(next.Add(1) - 1)
				if l.count > 0 && i >= l.count {
					break
				}
				due := time.Since(start)
				if l.rate > 0 {
					due = time.Duration(float64(i) / l.rate * float64(time.Second))
				}
				if l.count == 0 && due >= l.length {
					break
				}
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				o := l.gen(i)
				sent := time.Since(start)
				r := c.post(o.url, o.body)
				end := time.Since(start)
				from := sent
				if l.rate > 0 {
					from = due
				}
				s := sample{end: end, lat: end - from, late: sent - due, class: o.class, ok: r.status == http.StatusOK}
				if !s.ok {
					failed++
				}
				local = append(local, s)
				if l.keepEvery > 0 && i%l.keepEvery == 0 && r.status == http.StatusOK {
					kept = append(kept, keptReply{index: i, body: r.body})
				}
			}
			mu.Lock()
			out.samples = append(out.samples, local...)
			out.kept = append(out.kept, kept...)
			out.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.length = l.length
	if l.count > 0 {
		out.length = time.Since(start)
	}
	return out
}

// missedLimit reports whether a phase of the given length missed its
// latency limit. In each slice the highest percentile the slice's sample
// count resolves (p99 from 1000 samples, p90 from 100, else the slowest
// sample) is compared with the limit; the phase misses when the median slice
// does.
func missedLimit(samples []sample, length, limit time.Duration) bool {
	var tails []float64
	for _, lat := range bySlice(samples, length, nil) {
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		tail := lat[len(lat)-1]
		for _, p := range []float64{0.99, 0.90} {
			if q := tailQuantile(lat, p); q > 0 {
				tail = q
				break
			}
		}
		tails = append(tails, tail)
	}
	return len(tails) > 0 && median(tails) > ms(limit)
}

// gate counts the requests of a measured phase that ran over the limit as
// failed, when the phase missed it.
func (c *checks) gate(what string, samples []sample, length, limit time.Duration) {
	if !missedLimit(samples, length, limit) {
		return
	}
	over := 0
	for _, s := range samples {
		if s.ok && s.lat > limit {
			over++
		}
	}
	c.failed += over
	c.problems = append(c.problems, fmt.Sprintf("%s: %d of %d requests over the %v limit, and the median slice's tail is over it", what, over, len(samples), limit))
}
