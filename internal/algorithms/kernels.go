package algorithms

import "math"

// This file holds the solve loop of every algorithm of the ByName table:
// one loop over a (reduce, edge-op) table. A kernel is an algorithm's row
// of Table II: a reduce class (sum, min or max, which also fixes Identity
// and Changed) and an edge op (Propagate). The loop switches on the reduce
// class once per activation and on the edge op once per changed row, so
// the edge loop makes no interface call, closure call or switch. Whatever
// Propagate takes from the source alone is computed once per row.
//
// run must leave Values, Activations and Emitted bit-identical to
// solver.reference (TestSpecialisedLoopsMatchReference on whole solves,
// TestKernelsMatchInterface value by value). Two rules keep that true:
//   - min and max are Go's builtins, here and in the algorithms' methods
//     alike: math.Min(-∞, NaN) is -∞ where min(-∞, NaN) is NaN, and
//     math.Min is an assembly call on amd64 that is never inlined.
//   - a product added into a sum goes through an explicit float64
//     conversion, which forbids fusing it into one FMA: the reference's
//     Propagate call cannot fuse, so neither may the inline form.

// reduceClass is a kernel's Reduce, and with it the identity a vertex's
// pending delta returns to and the Changed test.
type reduceClass uint8

const (
	reduceSum reduceClass = iota // +, identity 0, changed |Δ| > θ
	reduceMin                    // min, identity +∞, changed new < old
	reduceMax                    // max, identity -∞, changed new > old
)

// edgeOp is a kernel's Propagate.
type edgeOp uint8

const (
	rankShare   edgeOp = iota // α·δ/deg (PageRank)
	scaleWeight               // α·E·δ (Adsorption)
	addWeight                 // E+δ (SSSP)
	addOne                    // δ+1 (BFS)
	zero                      // 0 (Reach)
	forward                   // δ (CC)
	capWeight                 // min(δ, E) (SSWP)
	mulWeight                 // δ·E (ReliablePath)
)

// kernel is one algorithm's row of the table.
type kernel struct {
	reduce           reduceClass
	edge             edgeOp
	alpha, threshold float64 // α of rankShare and scaleWeight; θ of reduceSum
}

// kernelFor returns alg's kernel, looking through warm-start wrappers (a
// warm start changes only InitState and InitialEvents, which init has
// already consumed). It reports false for an algorithm outside the table.
func kernelFor(alg Algorithm) (kernel, bool) {
	switch a := alg.(type) {
	case *warmStart:
		return kernelFor(a.Algorithm)
	case *warmStartProg:
		return kernelFor(a.Algorithm)
	case *PageRankDelta:
		return kernel{reduceSum, rankShare, a.Alpha, a.Threshold}, true
	case *Adsorption:
		return kernel{reduceSum, scaleWeight, a.Alpha, a.Threshold}, true
	case *SSSP:
		return kernel{reduce: reduceMin, edge: addWeight}, true
	case *BFS:
		return kernel{reduce: reduceMin, edge: addOne}, true
	case *Reach:
		return kernel{reduce: reduceMin, edge: zero}, true
	case *ConnectedComponents:
		return kernel{reduce: reduceMax, edge: forward}, true
	case *SSWP:
		return kernel{reduce: reduceMax, edge: capWeight}, true
	case *ReliablePath:
		return kernel{reduce: reduceMax, edge: mulWeight}, true
	}
	return kernel{}, false
}

// weightAt is the weight of a row's i-th edge: wt[i], or 1 on an
// unweighted graph.
func weightAt(wt []float32, i int) float64 {
	if wt == nil {
		return 1
	}
	return float64(wt[i])
}

// run is the solve loop of kernel k. Per activation, the case of k's reduce
// class resets the pending delta to the class's identity, reduces it into
// the state and tests Changed; per changed row, the case picks k's edge op.
func (s *solver) run(k kernel) {
	state, acc, wl := s.state, s.acc, s.wl
	alpha, threshold := k.alpha, k.threshold
	for s.more() {
		// next, written out so that an activation makes one call (Pop)
		v := wl.Pop()
		s.res.Activations++
		delta := acc[v]
		old := state[v]
		switch k.reduce {
		case reduceSum:
			acc[v] = 0
			next := old + delta
			state[v] = next
			if !(math.Abs(next-old) > threshold) {
				continue
			}
			dst, wt := s.row(v)
			s.res.Emitted += int64(len(dst))
			switch k.edge {
			case rankShare:
				out := alpha * delta / float64(len(dst))
				for _, d := range dst {
					acc[d] += out
					wl.Push(d)
				}
			case scaleWeight:
				for i, d := range dst {
					acc[d] += float64(alpha * weightAt(wt, i) * delta)
					wl.Push(d)
				}
			}
		case reduceMin:
			acc[v] = Infinity
			next := min(old, delta)
			state[v] = next
			if !(next < old) {
				continue
			}
			dst, wt := s.row(v)
			s.res.Emitted += int64(len(dst))
			switch k.edge {
			case addWeight:
				for i, d := range dst {
					acc[d] = min(acc[d], weightAt(wt, i)+delta)
					wl.Push(d)
				}
			case addOne, zero:
				out := delta + 1
				if k.edge == zero {
					out = 0
				}
				for _, d := range dst {
					acc[d] = min(acc[d], out)
					wl.Push(d)
				}
			}
		default:
			acc[v] = math.Inf(-1)
			next := max(old, delta)
			state[v] = next
			if !(next > old) {
				continue
			}
			dst, wt := s.row(v)
			s.res.Emitted += int64(len(dst))
			switch k.edge {
			case forward:
				for _, d := range dst {
					acc[d] = max(acc[d], delta)
					wl.Push(d)
				}
			case capWeight:
				for i, d := range dst {
					acc[d] = max(acc[d], min(delta, weightAt(wt, i)))
					wl.Push(d)
				}
			case mulWeight:
				for i, d := range dst {
					acc[d] = max(acc[d], delta*weightAt(wt, i))
					wl.Push(d)
				}
			}
		}
	}
}
