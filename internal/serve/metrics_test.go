package serve

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.observe(v)
	}
	if want := []int64{2, 2, 2}; len(h.counts) != 3 || h.counts[0] != want[0] || h.counts[1] != want[1] || h.counts[2] != want[2] {
		t.Errorf("bucket counts (≤10, ≤100, overflow) = %v, want %v", h.counts, want)
	}
	if h.n != 6 || h.max != 5000 {
		t.Errorf("count=%d max=%d", h.n, h.max)
	}
}

func TestHistogramMean(t *testing.T) {
	h := newHistogram([]int64{100})
	if h.mean() != 0 {
		t.Error("empty histogram mean != 0")
	}
	h.observe(10)
	h.observe(20)
	if got := h.mean(); got != 15 {
		t.Errorf("mean = %g, want 15", got)
	}
	if h.sum != 30 {
		t.Errorf("sum = %d, want 30", h.sum)
	}
}

func TestHistogramUnsortedBounds(t *testing.T) {
	h := newHistogram([]int64{100, 10})
	h.observe(50)
	if h.bounds[0] != 10 || h.bounds[1] != 100 {
		t.Errorf("bounds not sorted: %v", h.bounds)
	}
	if h.counts[1] != 1 {
		t.Errorf("50 landed in the wrong bucket: %v", h.counts)
	}
}

// TestPropertyHistogramConservation: total bucket counts always equal the
// number of observations, and the sum stays consistent.
func TestPropertyHistogramConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHistogram([]int64{8, 64, 512})
		var sum int64
		for i := 0; i < int(n); i++ {
			v := int64(rng.Intn(2000))
			sum += v
			h.observe(v)
		}
		var total int64
		for _, c := range h.counts {
			total += c
		}
		return total == int64(n) && h.sum == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetricsCatalog([]string{"reads"}, nil)
	if m.Counter("nope") != 0 || m.Counter("reads") != 0 {
		t.Error("unset counter not zero")
	}
	m.Add("reads", 3)
	m.Add("reads", 4)
	m.Add("writes", 1)
	if got := m.Counter("reads"); got != 7 {
		t.Errorf("reads = %d, want 7", got)
	}
	if got := m.Counter("writes"); got != 1 {
		t.Errorf("writes = %d, want 1 (an unregistered name counts from zero)", got)
	}
}

// TestMetricsRenderRegistrationOrder pins Render's exact output for names
// registered and first written in interleaved order: counters and
// histograms share one order, a re-written name keeps its place, and a
// histogram's buckets render inline. Any map-ordered rendering or format
// drift fails here.
func TestMetricsRenderRegistrationOrder(t *testing.T) {
	m := NewMetricsCatalog([]string{"reads"}, nil)
	m.Add("reads", 3)
	m.Observe("latency", 50)
	m.Observe("latency", 2_000_000)
	m.Add("writes", 1)
	m.Add("reads", 4)
	m.Observe("latency", 100)
	m.Register([]string{"errors"}, []string{"latency"})

	got := m.Render()
	want := "# graphpulse serve metrics (see METRICS.md)\n" +
		"reads                                    7\n" +
		"latency                                  count=3 mean=666716.67 max=2000000\n" +
		"  ≤100                                   2\n" +
		"  ≤250                                   0\n" +
		"  ≤500                                   0\n" +
		"  ≤1000                                  0\n" +
		"  ≤2500                                  0\n" +
		"  ≤5000                                  0\n" +
		"  ≤10000                                 0\n" +
		"  ≤25000                                 0\n" +
		"  ≤50000                                 0\n" +
		"  ≤100000                                0\n" +
		"  ≤250000                                0\n" +
		"  ≤500000                                0\n" +
		"  ≤1000000                               0\n" +
		"  >overflow                              1\n" +
		"writes                                   1\n" +
		"errors                                   0\n"
	if got != want {
		t.Fatalf("Render mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	for i := 0; i < 100; i++ {
		if m.Render() != got {
			t.Fatal("Render is not deterministic across calls")
		}
	}
}

// TestMetricsOrderIncludesHistograms: counters and histograms share one
// registration order, so a histogram registered between two counters
// renders between them.
func TestMetricsOrderIncludesHistograms(t *testing.T) {
	m := NewMetricsCatalog(nil, nil)
	m.Add("a", 1)
	m.Register(nil, []string{"h"})
	m.Add("b", 1)
	want := []string{"a", "h", "b"}
	if len(m.order) != len(want) {
		t.Fatalf("order = %v, want %v", m.order, want)
	}
	for i := range want {
		if m.order[i] != want[i] {
			t.Fatalf("order = %v, want %v", m.order, want)
		}
	}
}

// TestMetricsHistogramReuse: observing or re-registering an existing
// histogram reuses it — observations survive and the name keeps its one
// place in the order.
func TestMetricsHistogramReuse(t *testing.T) {
	m := NewMetricsCatalog(nil, []string{"lat"})
	h1 := m.histograms["lat"]
	m.Observe("lat", 5)
	m.Register(nil, []string{"lat"})
	m.Observe("lat", 7)
	h2 := m.histograms["lat"]
	if h1 != h2 {
		t.Error("re-registration replaced the existing histogram")
	}
	if h2.n != 2 {
		t.Errorf("count = %d, want 2 (observations lost on reuse)", h2.n)
	}
	if len(m.order) != 1 || m.order[0] != "lat" {
		t.Errorf("order = %v, want one registration of lat", m.order)
	}
}
