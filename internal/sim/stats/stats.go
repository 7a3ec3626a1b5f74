// Package stats collects the measurements every figure in the paper's
// evaluation is produced from: counters, bucketed histograms, running
// means, and per-stage cycle accounting.
//
// The simulator is single-threaded by construction, so none of these types
// use atomics; they are plain fields updated on the hot path and read at
// report time.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a named collection of counters and histograms. The zero value is
// not usable; call NewSet.
type Set struct {
	counters   map[string]int64
	histograms map[string]*Histogram
	// order lists every counter and histogram name in first-registration
	// order; Report and Names render from it so output is deterministic.
	order []string
}

// NewSet returns an empty Set.
func NewSet() *Set {
	return &Set{
		counters:   make(map[string]int64),
		histograms: make(map[string]*Histogram),
	}
}

// Add increments counter name by delta, creating it at zero if needed.
func (s *Set) Add(name string, delta int64) {
	if _, ok := s.counters[name]; !ok {
		s.order = append(s.order, name)
	}
	s.counters[name] += delta
}

// Counter returns the current value of a counter (0 if never written).
func (s *Set) Counter(name string) int64 { return s.counters[name] }

// Counters returns a copy of all counters.
func (s *Set) Counters() map[string]int64 {
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}

// Histogram returns the named histogram, creating it with the given buckets
// on first use. Subsequent calls ignore the bucket argument.
func (s *Set) Histogram(name string, buckets []int64) *Histogram {
	if h, ok := s.histograms[name]; ok {
		return h
	}
	s.order = append(s.order, name)
	h := NewHistogram(buckets)
	s.histograms[name] = h
	return h
}

// Names returns every counter and histogram name in first-registration
// order (the order Report renders).
func (s *Set) Names() []string { return append([]string(nil), s.order...) }

// Report renders every counter and histogram in first-registration order —
// fully deterministic, including the counter/histogram interleaving (both
// kinds share one order list; map iteration never decides placement).
// Histograms render as a summary line followed by their buckets.
func (s *Set) Report() string {
	var b strings.Builder
	for _, n := range s.order {
		if v, ok := s.counters[n]; ok {
			fmt.Fprintf(&b, "%-40s %d\n", n, v)
		}
		if h, ok := s.histograms[n]; ok {
			fmt.Fprintf(&b, "%-40s count=%d mean=%.2f max=%d\n", n, h.Count(), h.Mean(), h.Max())
			for _, bk := range h.Buckets() {
				label := "  >overflow"
				if bk.UpperBound >= 0 {
					label = fmt.Sprintf("  ≤%d", bk.UpperBound)
				}
				fmt.Fprintf(&b, "%-40s %d\n", label, bk.Count)
			}
		}
	}
	return b.String()
}

// String renders counters sorted by name, one per line.
func (s *Set) String() string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-40s %d\n", n, s.counters[n])
	}
	return b.String()
}

// Histogram counts observations into fixed upper-bound buckets plus an
// overflow bucket, and tracks sum/count/max for mean reporting.
type Histogram struct {
	bounds []int64 // ascending upper bounds (inclusive)
	counts []int64 // len(bounds)+1; last is overflow
	sum    int64
	n      int64
	max    int64
}

// NewHistogram creates a histogram with the given ascending inclusive upper
// bounds. Values above the last bound land in the overflow bucket.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the mean observation (0 if none).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Buckets returns (bound, count) pairs, with the overflow bucket reported
// under bound -1.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for i, c := range h.counts {
		b := int64(-1)
		if i < len(h.bounds) {
			b = h.bounds[i]
		}
		out = append(out, Bucket{UpperBound: b, Count: c})
	}
	return out
}

// Bucket is one histogram bucket. UpperBound -1 marks overflow.
type Bucket struct {
	UpperBound int64
	Count      int64
}

// StageTimer accumulates cycles spent per pipeline stage. It backs Figure
// 13 (chronological per-event stage breakdown) and Figure 14 (busy/stall
// fractions). Stages are indices the models name with constants, so
// accounting on the per-event path is an array update, not a name lookup;
// the models keep the display names beside their constants.
type StageTimer struct {
	cycles []int64
	events []int64
}

// NewStageTimer creates a timer for stages 0..stages-1.
func NewStageTimer(stages int) *StageTimer {
	return &StageTimer{
		cycles: make([]int64, stages),
		events: make([]int64, stages),
	}
}

// AddCycles accrues cycles to a stage.
func (t *StageTimer) AddCycles(stage int, cycles int64) {
	t.cycles[stage] += cycles
}

// AddEvent counts one event completing a stage (denominator for per-event
// means).
func (t *StageTimer) AddEvent(stage int) {
	t.events[stage]++
}

// AddEventCycles is AddCycles + AddEvent in one call.
func (t *StageTimer) AddEventCycles(stage int, cycles int64) {
	t.cycles[stage] += cycles
	t.events[stage]++
}

// Cycles returns total cycles accrued to a stage.
func (t *StageTimer) Cycles(stage int) int64 { return t.cycles[stage] }

// MeanCycles returns mean cycles per event for a stage (0 if no events).
func (t *StageTimer) MeanCycles(stage int) float64 {
	if t.events[stage] == 0 {
		return 0
	}
	return float64(t.cycles[stage]) / float64(t.events[stage])
}
