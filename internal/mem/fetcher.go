package mem

import "graphpulse/internal/sim"

// Fetcher turns byte-range accesses into line-granularity requests with
// backpressure handling. Engines call Fetch to stage a range; Pump (called
// once per cycle) pushes staged lines into the memory controller as queue
// space allows; the range's completion fires when its last line completes.
//
// The processors, generation units and swap engine all read variable-size
// records (vertex properties, CSR edge blocks, spilled event pages); this
// type keeps that splitting logic in one place.
//
// Nothing here allocates per line or per fetch once the buffers have grown
// to their high-water marks: a range's bookkeeping is a slot in a group
// table recycled through a free list, each line carries its slot index to
// the controller as the request Token, and the caller's completion is a
// function value bound once plus a tag naming what completed.
type Fetcher struct {
	mem     *Memory
	pending sim.FIFO[lineReq]
	groups  []fetchGroup
	free    []uint32
}

type lineReq struct {
	addr   uint64
	useful uint32
	write  bool
	group  uint32 // index into groups, or noGroup
}

// fetchGroup tracks one multi-line range until its last line lands.
type fetchGroup struct {
	remaining int
	done      func(tag uint64)
	tag       uint64
}

// noGroup marks lines whose range wants no completion.
const noGroup = ^uint32(0)

// NewFetcher wraps mem and installs itself as mem's completion handler.
func NewFetcher(mem *Memory) *Fetcher {
	f := &Fetcher{mem: mem}
	mem.OnComplete(f.lineDone)
	return f
}

// Fetch stages a read (or write) covering [addr, addr+bytes). usefulBytes
// says how much of the range is actually consumed; it is distributed across
// the lines first-to-last. done(tag) runs when the final line completes;
// done may be nil. A zero-byte fetch completes immediately. Bind done once
// (a method value kept in a field) and let tag name the slot or line that
// completed: a closure built per call is a heap object per fetch.
func (f *Fetcher) Fetch(addr, bytes, usefulBytes uint64, write bool, done func(tag uint64), tag uint64) {
	if bytes == 0 {
		if done != nil {
			done(tag)
		}
		return
	}
	first := addr / LineBytes
	last := (addr + bytes - 1) / LineBytes
	group := noGroup
	if done != nil {
		if n := len(f.free); n > 0 {
			group = f.free[n-1]
			f.free = f.free[:n-1]
		} else {
			group = uint32(len(f.groups))
			f.groups = append(f.groups, fetchGroup{})
		}
		f.groups[group] = fetchGroup{remaining: int(last-first) + 1, done: done, tag: tag}
	}
	useful := usefulBytes
	for line := first; line <= last; line++ {
		u := uint64(LineBytes)
		if u > useful {
			u = useful
		}
		useful -= u
		f.pending.Push(lineReq{addr: line * LineBytes, useful: uint32(u), write: write, group: group})
	}
}

// lineDone is the memory's completion handler: it retires one line of the
// group named by token and fires the group's completion after its last.
func (f *Fetcher) lineDone(token uint32) {
	if token == noGroup {
		return
	}
	g := &f.groups[token]
	g.remaining--
	if g.remaining > 0 {
		return
	}
	done, tag := g.done, g.tag
	*g = fetchGroup{}
	f.free = append(f.free, token)
	done(tag)
}

// Pump pushes staged lines into the memory controller until one is refused.
// Call once per cycle.
func (f *Fetcher) Pump() {
	for f.pending.Len() > 0 {
		lr := f.pending.At(0)
		if !f.mem.Enqueue(Request{Addr: lr.addr, Write: lr.write, UsefulBytes: lr.useful, Token: lr.group}) {
			return
		}
		f.pending.Pop()
	}
}

// Idle reports whether the fetcher has no staged lines (in-flight lines may
// still exist inside the memory controller).
func (f *Fetcher) Idle() bool { return f.pending.Len() == 0 }

// PendingLines returns the number of staged-but-unissued lines.
func (f *Fetcher) PendingLines() int { return f.pending.Len() }

// LineOverlap returns how many bytes of the line at line fall inside the
// byte range [lo, hi): the useful bytes of an edge line that a record
// range only partly covers.
func LineOverlap(line, lo, hi uint64) uint64 {
	lo, hi = max(lo, line), min(hi, line+LineBytes)
	if hi <= lo {
		return 0
	}
	return hi - lo
}
