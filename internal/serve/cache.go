package serve

import (
	"container/list"
	"context"
	"math"
	"strings"
	"sync"
)

// cachedResult is one converged computation, published read-only: the
// Values slice and the summary are never written after construction, but
// for wide, written once under wideOnce, so handlers and warm-start
// seeding may read them concurrently without copying.
type cachedResult struct {
	Values      []float64
	Epoch       uint64
	Mode        string // "cold", "warm" or "cone"
	Activations int64
	ComputeSecs float64

	// The summary every answer projects from, built with the result: sum
	// adds the finite values in index order; top holds the defaultTopN best
	// finite pairs, value descending, ties by ascending vertex id. wide holds
	// the maxTopN best, built on first use by a wider request.
	sum      float64
	top      []VertexValue
	wideOnce sync.Once
	wide     []VertexValue
}

// newCachedResult is the only constructor of a cachedResult: it takes
// ownership of values and reduces the summary in one O(n) pass.
func newCachedResult(values []float64, epoch uint64, mode string, activations int64, computeSecs float64) *cachedResult {
	top, sum := rank(values, defaultTopN)
	return &cachedResult{
		Values:      values,
		Epoch:       epoch,
		Mode:        mode,
		Activations: activations,
		ComputeSecs: computeSecs,
		sum:         sum,
		top:         top,
	}
}

// ranking returns the best min(k, maxTopN) finite pairs in answer order: a
// prefix of top, or past defaultTopN of wide, which every wide k shares.
func (r *cachedResult) ranking(k int) []VertexValue {
	if k > len(r.top) && len(r.top) == defaultTopN {
		r.wideOnce.Do(func() { r.wide, _ = rank(r.Values, maxTopN) })
		return r.wide[:min(k, len(r.wide))]
	}
	return r.top[:min(k, len(r.top))]
}

// rank returns the best k finite pairs in answer order, from a min-heap
// whose root is the worst kept, and the finite values' sum in index order.
// A non-finite value adds +0 (a sum begun at +0 keeps its bits) and compares
// as -Inf or NaN, so sssp's and bfs's scattered infinities cost no branch.
func rank(values []float64, k int) ([]VertexValue, float64) {
	top := make([]VertexValue, 0, min(len(values), k))
	sum, worst := 0.0, math.Inf(-1)
	for i, v := range values {
		b := math.Float64bits(v)
		nonFinite := (b>>52&0x7ff + 1) >> 11 // 1 iff the exponent is 0x7ff
		sum += math.Float64frombits(b &^ -nonFinite)
		if !(math.Float64frombits(b|nonFinite<<63) > worst) {
			continue
		}
		if len(top) < cap(top) {
			if top = append(top, VertexValue{Vertex: uint32(i), Value: v}); len(top) < cap(top) {
				continue
			}
			heapify(top)
		} else {
			top[0] = VertexValue{Vertex: uint32(i), Value: v}
			siftDown(top, 0)
		}
		worst = top[0].Value
	}
	heapify(top) // fewer finite values than slots leave it short
	// Heapsort in place: each round moves the worst kept pair to the end.
	for end := len(top) - 1; end > 0; end-- {
		top[0], top[end] = top[end], top[0]
		siftDown(top[:end], 0)
	}
	return top, sum
}

// ranksBefore is the answer order: higher value first, ties by lower
// vertex id so responses are deterministic.
func ranksBefore(a, b VertexValue) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Vertex < b.Vertex
}

func heapify(h []VertexValue) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown restores the heap below index i. The heap is ordered by
// ranksBefore with the pair that ranks last at the root, so a parent never
// ranks before its children.
func siftDown(h []VertexValue, i int) {
	item := h[i]
	for {
		c := 2*i + 1 // the child that ranks later
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && ranksBefore(h[c], h[r]) {
			c = r
		}
		if !ranksBefore(item, h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = item
}

// solverName names the one solver queries run on. It is the middle field
// of every series key, so snapshot series keys ("solve|algKey",
// SnapshotVersion 1) keep the bytes older servers write and read, and it
// is the response's "engine" field.
const solverName = "solve"

// seriesKey identifies a computation independent of graph version:
// graph name + solver + canonical algorithm key. The cache key pairs it
// with the epoch, so mutations version the cache instead of invalidating
// it — older entries stay useful as warm-start sources.
func seriesKey(graphName, algKey string) string {
	return graphName + "|" + solverName + "|" + algKey
}

// cacheKey names one cached result or in-flight computation: a series at
// one graph epoch.
type cacheKey struct {
	series string
	epoch  uint64
}

type lruEntry struct {
	key cacheKey
	res *cachedResult
}

// resultCache is a bounded LRU of cachedResults, with a per-series index
// of the newest cached epoch for warm-start lookups.
type resultCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element
	latest  map[string]uint64 // series → newest epoch with a live entry
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:     max,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element),
		latest:  make(map[string]uint64),
	}
}

func (c *resultCache) get(series string, epoch uint64) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{series, epoch}]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (c *resultCache) put(series string, epoch uint64, res *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{series, epoch}
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	if cur, ok := c.latest[series]; !ok || epoch > cur {
		c.latest[series] = epoch
	}
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*lruEntry)
		delete(c.entries, e.key)
		if c.latest[e.key.series] == e.key.epoch {
			// The newest entry for this series just left; warm starts for
			// it fall back to cold solves until a query repopulates it.
			delete(c.latest, e.key.series)
		}
	}
}

// latestBefore returns the newest cached result for series with an epoch
// strictly below the given one — the warm-start source.
func (c *resultCache) latestBefore(series string, epoch uint64) (*cachedResult, uint64, bool) {
	c.mu.Lock()
	e, ok := c.latest[series]
	c.mu.Unlock()
	if !ok || e >= epoch {
		return nil, 0, false
	}
	res, ok := c.get(series, e)
	if !ok {
		return nil, 0, false
	}
	return res, e, true
}

// exportSeries returns every cached result whose series starts with
// prefix (a "graphName|" boundary) and whose epoch matches exactly,
// keyed by full series — the per-graph slice a snapshot captures.
func (c *resultCache) exportSeries(prefix string, epoch uint64) map[string]*cachedResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*cachedResult)
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		if e.key.epoch == epoch && strings.HasPrefix(e.key.series, prefix) {
			out[e.key.series] = e.res
		}
	}
	return out
}

// flight is one in-progress computation that identical concurrent misses
// coalesce onto. The leader computes under a context that outlives any
// single request but is canceled once every waiter has abandoned the
// result — request deadlines propagate to the solver without letting one
// impatient client kill work others still want.
type flight struct {
	done chan struct{} // closed when res/err are set
	res  *cachedResult
	err  error

	mu      sync.Mutex
	waiters int
	cancel  context.CancelFunc
}

// join registers one more waiter.
func (f *flight) join() {
	f.mu.Lock()
	f.waiters++
	f.mu.Unlock()
}

// leave unregisters a waiter; the last one out cancels the computation if
// it has not finished.
func (f *flight) leave() {
	f.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	f.mu.Unlock()
	if last {
		select {
		case <-f.done:
		default:
			f.cancel()
		}
	}
}
