package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetCounters(t *testing.T) {
	s := NewSet()
	if s.Counter("nope") != 0 {
		t.Error("unset counter not zero")
	}
	s.Add("reads", 3)
	s.Add("reads", 4)
	s.Add("writes", 1)
	if got := s.Counter("reads"); got != 7 {
		t.Errorf("reads = %d, want 7", got)
	}
	m := s.Counters()
	m["reads"] = 0
	if s.Counter("reads") != 7 {
		t.Error("Counters() returned a live map")
	}
	if !strings.Contains(s.String(), "reads") {
		t.Error("String() missing counter name")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	b := h.Buckets()
	if len(b) != 3 {
		t.Fatalf("buckets = %d, want 3", len(b))
	}
	if b[0].Count != 2 { // 1, 10
		t.Errorf("bucket ≤10 = %d, want 2", b[0].Count)
	}
	if b[1].Count != 2 { // 11, 100
		t.Errorf("bucket ≤100 = %d, want 2", b[1].Count)
	}
	if b[2].Count != 2 || b[2].UpperBound != -1 { // overflow
		t.Errorf("overflow = %+v", b[2])
	}
	if h.Count() != 6 || h.Max() != 5000 {
		t.Errorf("count=%d max=%d", h.Count(), h.Max())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram([]int64{100})
	if h.Mean() != 0 {
		t.Error("empty histogram mean != 0")
	}
	h.Observe(10)
	h.Observe(20)
	if got := h.Mean(); got != 15 {
		t.Errorf("Mean = %g, want 15", got)
	}
	if h.Sum() != 30 {
		t.Errorf("Sum = %d, want 30", h.Sum())
	}
}

func TestHistogramUnsortedBounds(t *testing.T) {
	h := NewHistogram([]int64{100, 10})
	h.Observe(50)
	b := h.Buckets()
	if b[0].UpperBound != 10 || b[1].UpperBound != 100 {
		t.Errorf("bounds not sorted: %+v", b)
	}
	if b[1].Count != 1 {
		t.Errorf("50 landed in wrong bucket: %+v", b)
	}
}

func TestSetHistogramReuse(t *testing.T) {
	s := NewSet()
	h1 := s.Histogram("lat", []int64{10})
	h1.Observe(5)
	h2 := s.Histogram("lat", []int64{99, 100}) // buckets ignored on reuse
	if h1 != h2 {
		t.Error("Histogram did not return the existing histogram")
	}
	if h2.Count() != 1 {
		t.Error("observations lost on reuse")
	}
	if got := s.Names(); len(got) != 1 || got[0] != "lat" {
		t.Errorf("Names = %v, want one registration of lat", got)
	}
}

func TestStageTimer(t *testing.T) {
	const (
		fetch = iota
		process
		emit
	)
	st := NewStageTimer(3)
	st.AddEventCycles(fetch, 10)
	st.AddEventCycles(fetch, 20)
	st.AddEventCycles(process, 4)
	st.AddCycles(emit, 6)
	if got := st.MeanCycles(fetch); got != 15 {
		t.Errorf("MeanCycles(fetch) = %g, want 15", got)
	}
	if got := st.MeanCycles(emit); got != 0 {
		t.Errorf("MeanCycles(emit) with no events = %g, want 0", got)
	}
	if got := st.TotalCycles(); got != 40 {
		t.Errorf("TotalCycles = %d, want 40", got)
	}
	if got := st.Cycles(fetch); got != 30 {
		t.Errorf("Cycles(fetch) = %d, want 30 of 40", got)
	}
	if got := st.Cycles(process); got != 4 {
		t.Errorf("Cycles(process) = %d", got)
	}
}

func TestStageTimerUnknownStagePanics(t *testing.T) {
	st := NewStageTimer(1)
	defer func() {
		if recover() == nil {
			t.Error("unknown stage did not panic")
		}
	}()
	st.AddCycles(1, 1)
}

// TestPropertyHistogramConservation: total bucket counts always equal the
// number of observations, and sum/mean stay consistent.
func TestPropertyHistogramConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram([]int64{8, 64, 512})
		var sum int64
		for i := 0; i < int(n); i++ {
			v := int64(rng.Intn(2000))
			sum += v
			h.Observe(v)
		}
		var total int64
		for _, b := range h.Buckets() {
			total += b.Count
		}
		return total == int64(n) && h.Sum() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestReportGolden pins Report()'s exact output: counters and histograms
// interleave in first-registration order, with histogram buckets inline.
// Any nondeterminism (map-ordered rendering) or format drift fails here.
func TestReportGolden(t *testing.T) {
	s := NewSet()
	s.Add("reads", 3)
	h := s.Histogram("latency", []int64{10, 100})
	h.Observe(5)
	h.Observe(500)
	s.Add("writes", 1)
	s.Add("reads", 4) // re-adding must not re-order

	got := s.Report()
	wantExact := "reads                                    7\n" +
		"latency                                  count=2 mean=252.50 max=500\n" +
		"  ≤10                                    1\n" +
		"  ≤100                                   0\n" +
		"  >overflow                              1\n" +
		"writes                                   1\n"
	if got != wantExact {
		t.Fatalf("Report mismatch:\n got:\n%s\nwant:\n%s", got, wantExact)
	}
	for i := 0; i < 100; i++ {
		if s.Report() != got {
			t.Fatal("Report is not deterministic across calls")
		}
	}
}

func TestNamesIncludesHistograms(t *testing.T) {
	s := NewSet()
	s.Add("a", 1)
	s.Histogram("h", []int64{1})
	s.Add("b", 1)
	got := s.Names()
	want := []string{"a", "h", "b"}
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}
