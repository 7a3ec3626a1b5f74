package algorithms

import "math"

// This file holds the specialised solve loops: one per algorithm of the
// ByName table, each with its Reduce, Propagate and Changed written inline,
// so the edge loop makes no interface call and builds no EdgeContext.
// Whatever Propagate computes from the source alone (PageRank's α·δ/deg,
// BFS's δ+1, Reach's 0, CC's δ) is computed once per row.
//
// Every loop must leave Values, Activations and Emitted bit-identical to
// solver.reference; TestSpecialisedLoopsMatchReference holds them to it.
// Two rules keep that true:
//   - min and max are Go's builtins. The language defines them as math.Min
//     and math.Max behave (NaN and ±0 included), but they compile to
//     inline branch-free instructions, where math.Min and math.Max are an
//     assembly call on amd64 that is never inlined.
//   - a product added into a sum goes through an explicit float64
//     conversion, which forbids fusing it into one FMA: the reference's
//     Propagate call cannot fuse, so neither may the inline form.

// specialised runs alg's own loop, looking through warm-start wrappers (a
// warm start changes only InitState and InitialEvents, which init has
// already consumed). It reports false for an algorithm outside the table.
func (s *solver) specialised(alg Algorithm) bool {
	switch a := unwrapWarm(alg).(type) {
	case *PageRankDelta:
		s.pageRank(a)
	case *Adsorption:
		s.adsorption(a)
	case *SSSP:
		s.sssp()
	case *BFS:
		s.bfs()
	case *Reach:
		s.reach()
	case *ConnectedComponents:
		s.cc()
	case *SSWP:
		s.sswp()
	case *ReliablePath:
		s.reliablePath()
	default:
		return false
	}
	return true
}

// unwrapWarm returns the algorithm behind alg's warm-start wrappers.
func unwrapWarm(alg Algorithm) Algorithm {
	for {
		switch w := alg.(type) {
		case *warmStart:
			alg = w.Algorithm
		case *warmStartProg:
			alg = w.Algorithm
		default:
			return alg
		}
	}
}

// pageRank: reduce +, propagate α·δ/deg, changed |Δ| > θ.
func (s *solver) pageRank(p *PageRankDelta) {
	state, acc, inList, wl := s.state, s.acc, s.inList, s.wl
	alpha, threshold := p.Alpha, p.Threshold
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = 0
		old := state[v]
		next := old + delta
		state[v] = next
		if !(math.Abs(next-old) > threshold) {
			continue
		}
		dst, _ := s.row(v)
		if len(dst) == 0 {
			continue
		}
		s.res.Emitted += int64(len(dst))
		out := alpha * delta / float64(len(dst))
		for _, d := range dst {
			acc[d] += out
			if !inList[d] {
				inList[d] = true
				wl.Push(d)
			}
		}
	}
}

// adsorption: reduce +, propagate α·E·δ, changed |Δ| > θ.
func (s *solver) adsorption(a *Adsorption) {
	state, acc, inList, wl := s.state, s.acc, s.inList, s.wl
	alpha, threshold := a.Alpha, a.Threshold
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = 0
		old := state[v]
		next := old + delta
		state[v] = next
		if !(math.Abs(next-old) > threshold) {
			continue
		}
		dst, wt := s.row(v)
		s.res.Emitted += int64(len(dst))
		for i, d := range dst {
			w := float32(1)
			if wt != nil {
				w = wt[i]
			}
			acc[d] += float64(alpha * float64(w) * delta)
			if !inList[d] {
				inList[d] = true
				wl.Push(d)
			}
		}
	}
}

// sssp: reduce min, propagate E+δ, changed new < old.
func (s *solver) sssp() {
	state, acc, inList, wl := s.state, s.acc, s.inList, s.wl
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = Infinity
		old := state[v]
		next := min(old, delta)
		state[v] = next
		if !(next < old) {
			continue
		}
		dst, wt := s.row(v)
		s.res.Emitted += int64(len(dst))
		for i, d := range dst {
			w := float32(1)
			if wt != nil {
				w = wt[i]
			}
			acc[d] = min(acc[d], float64(w)+delta)
			if !inList[d] {
				inList[d] = true
				wl.Push(d)
			}
		}
	}
}

// bfs: reduce min, propagate δ+1, changed new < old.
func (s *solver) bfs() {
	state, acc, inList, wl := s.state, s.acc, s.inList, s.wl
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = Infinity
		old := state[v]
		next := min(old, delta)
		state[v] = next
		if !(next < old) {
			continue
		}
		dst, _ := s.row(v)
		s.res.Emitted += int64(len(dst))
		out := delta + 1
		for _, d := range dst {
			acc[d] = min(acc[d], out)
			if !inList[d] {
				inList[d] = true
				wl.Push(d)
			}
		}
	}
}

// reach: reduce min, propagate 0, changed new < old.
func (s *solver) reach() {
	state, acc, inList, wl := s.state, s.acc, s.inList, s.wl
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = Infinity
		old := state[v]
		next := min(old, delta)
		state[v] = next
		if !(next < old) {
			continue
		}
		dst, _ := s.row(v)
		s.res.Emitted += int64(len(dst))
		for _, d := range dst {
			acc[d] = min(acc[d], 0)
			if !inList[d] {
				inList[d] = true
				wl.Push(d)
			}
		}
	}
}

// cc: reduce max, propagate δ, changed new > old.
func (s *solver) cc() {
	state, acc, inList, wl := s.state, s.acc, s.inList, s.wl
	idle := math.Inf(-1)
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = idle
		old := state[v]
		next := max(old, delta)
		state[v] = next
		if !(next > old) {
			continue
		}
		dst, _ := s.row(v)
		s.res.Emitted += int64(len(dst))
		for _, d := range dst {
			acc[d] = max(acc[d], delta)
			if !inList[d] {
				inList[d] = true
				wl.Push(d)
			}
		}
	}
}

// sswp: reduce max, propagate min(δ, E), changed new > old.
func (s *solver) sswp() {
	state, acc, inList, wl := s.state, s.acc, s.inList, s.wl
	idle := math.Inf(-1)
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = idle
		old := state[v]
		next := max(old, delta)
		state[v] = next
		if !(next > old) {
			continue
		}
		dst, wt := s.row(v)
		s.res.Emitted += int64(len(dst))
		for i, d := range dst {
			w := float32(1)
			if wt != nil {
				w = wt[i]
			}
			acc[d] = max(acc[d], min(delta, float64(w)))
			if !inList[d] {
				inList[d] = true
				wl.Push(d)
			}
		}
	}
}

// reliablePath: reduce max, propagate δ·E, changed new > old.
func (s *solver) reliablePath() {
	state, acc, inList, wl := s.state, s.acc, s.inList, s.wl
	idle := math.Inf(-1)
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		delta := acc[v]
		acc[v] = idle
		old := state[v]
		next := max(old, delta)
		state[v] = next
		if !(next > old) {
			continue
		}
		dst, wt := s.row(v)
		s.res.Emitted += int64(len(dst))
		for i, d := range dst {
			w := float32(1)
			if wt != nil {
				w = wt[i]
			}
			acc[d] = max(acc[d], delta*float64(w))
			if !inList[d] {
				inList[d] = true
				wl.Push(d)
			}
		}
	}
}
