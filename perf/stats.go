package main

import (
	"math"
	"sort"
	"time"
)

// slices is how many equal parts every timed phase is cut into; the reported
// value of a phase is its median slice, so one stall on a shared box moves
// one slice, not the result.
const slices = 5

// quantile returns the p-quantile (0..1) of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (exclusive method) — the same rule the acceptance driver applies.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sortedCopy(v)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// tailQuantile returns the p-quantile of sorted only when at least ten
// samples lie beyond it; otherwise 0 ("not resolvable at this sample count").
func tailQuantile(sorted []float64, p float64) float64 {
	if float64(len(sorted))*(1-p) < 10 {
		return 0
	}
	return quantile(sorted, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one completed client operation.
type sample struct {
	end   time.Duration // completion, as an offset from the phase start
	lat   time.Duration // closed loop: send→reply; open loop: due→reply
	late  time.Duration // open loop: how long after its due time it was sent
	class int
	ok    bool
}

func latenciesMS(samples []sample, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep == nil || keep(s) {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// sliced is the latency of a phase summarised slice by slice.
type sliced struct {
	p50, p50Spread float64 // ms: median of the slice medians, and their quartile spread
	n              int     // samples behind it
}

// bySlice sorts the latencies (ms) of the successful samples keep accepts
// into the equal slices of a phase of the given length, by completion time.
func bySlice(samples []sample, length time.Duration, keep func(sample) bool) (lat [slices][]float64) {
	for _, s := range samples {
		if !s.ok || (keep != nil && !keep(s)) {
			continue
		}
		i := min(int(int64(s.end)*slices/int64(length)), slices-1)
		lat[i] = append(lat[i], ms(s.lat))
	}
	return lat
}

// slicePhase reports the median slice's p50 of a phase.
func slicePhase(samples []sample, length time.Duration, keep func(sample) bool) sliced {
	var p50s []float64
	n := 0
	for _, lat := range bySlice(samples, length, keep) {
		if len(lat) > 0 {
			p50s = append(p50s, median(lat))
			n += len(lat)
		}
	}
	return sliced{p50: median(p50s), p50Spread: spread(p50s), n: n}
}

// passStats summarises interleaved passes of one regime as the latency of
// one operation: the median pass time divided by ops, the operations per
// pass.
func passStats(passes []time.Duration, ops int) (p50, p50Spread float64) {
	var lat []float64
	for _, d := range passes {
		lat = append(lat, ms(d)/float64(ops))
	}
	return median(lat), spread(lat)
}
