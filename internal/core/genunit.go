package core

import (
	"graphpulse/internal/mem"
	"graphpulse/internal/sim"
)

// edgeCache is the small per-generation-unit cache in front of edge memory
// with N-block prefetching (Section V): "A simple N-block prefetching (N=4)
// scheme is used for edge memory reads", bounded by the degree hint "to
// avoid unnecessary memory traffic for low degree vertices".
type edgeCache struct {
	a     *Accelerator
	addrs []uint64
	lines []ecLine
	// onLine is the fill completion, bound once; its tag is the slot.
	onLine func(tag uint64)
}

type ecLine struct {
	valid bool
	ready bool
}

func newEdgeCache(a *Accelerator, capLines int) *edgeCache {
	c := &edgeCache{
		a:     a,
		addrs: make([]uint64, capLines),
		lines: make([]ecLine, capLines),
	}
	c.onLine = c.lineDone
	return c
}

// lineDone marks slot `slot` filled. A pending line is never evicted, so
// the slot still holds the line that was fetched.
func (c *edgeCache) lineDone(slot uint64) { c.lines[slot].ready = true }

// slot returns the cache slot holding addr, or nil.
func (c *edgeCache) slot(addr uint64) *ecLine {
	for i, a := range c.addrs {
		if a == addr && c.lines[i].valid {
			return &c.lines[i]
		}
	}
	return nil
}

// containsLine is a linear membership test; the protection sets involved
// hold at most a handful of lines.
func containsLine(set []uint64, addr uint64) bool {
	for _, a := range set {
		if a == addr {
			return true
		}
	}
	return false
}

// ensure prefetches up to n lines starting at addr, not exceeding lastLine
// (derived from the task's degree hint). Pending lines and lines in the
// `needed` set (the current line of every active stream sharing the cache)
// are never evicted, so streams cannot thrash each other's working line.
func (c *edgeCache) ensure(addr, lastLine uint64, n int, t *genTask, needed []uint64) {
	for i := 0; i < n; i++ {
		line := addr + uint64(i)*mem.LineBytes
		if line > lastLine {
			return
		}
		present := false
		for j, a := range c.addrs {
			if a == line && c.lines[j].valid {
				present = true
				break
			}
		}
		if present {
			continue
		}
		victim := -1
		for j := range c.lines {
			l := &c.lines[j]
			if !l.valid {
				victim = j
				break
			}
			if victim == -1 && l.ready && !containsLine(needed, c.addrs[j]) {
				victim = j
			}
		}
		if victim == -1 {
			return
		}
		c.addrs[victim] = line
		c.lines[victim] = ecLine{valid: true}
		c.a.fetch.Fetch(line, mem.LineBytes, c.a.edgeLineUseful(line, t), false, c.onLine, uint64(victim))
	}
}

// genStream is one generation stream: assigned one changed vertex at a
// time, it walks the vertex's edge list emitting one outgoing event per
// cycle when edge data is available.
type genStream struct {
	task genTask
	busy bool // task is live
	idx  int
	// ensured is the last edge line the prefetch window was topped up for.
	ensured uint64
	// cur caches the cache slot of the current line (nil when absent); the
	// line is eviction-protected while current, so the pointer stays valid.
	cur     *ecLine
	curAddr uint64
	// memCycles and genCycles accumulate the current task's edge-memory
	// wait and emitting cycles (Figure 13's "Edge Mem" and "Generate").
	memCycles int64
	genCycles int64
}

// genUnit bundles the streams attached to one processor behind a shared
// edge cache (Section V: "A group of streams in one generation unit share
// the same cache but multiple ports in the event delivery crossbar").
type genUnit struct {
	a         *Accelerator
	queue     sim.FIFO[genTask]
	streams   []*genStream
	cache     *edgeCache
	stateHist [numGenStates]int64
	needBuf   []uint64 // reusable per-tick protection set
}

func newGenUnit(a *Accelerator) *genUnit {
	u := &genUnit{a: a, cache: newEdgeCache(a, a.cfg.EdgeCacheLines)}
	u.streams = make([]*genStream, a.cfg.StreamsPerProcessor)
	for i := range u.streams {
		u.streams[i] = &genStream{}
	}
	return u
}

// submit offers a task to the unit's input buffer; false means full (the
// processor enters its Stalling state).
func (u *genUnit) submit(t genTask) bool {
	if u.queue.Len() >= u.a.cfg.GenQueueDepth {
		return false
	}
	u.queue.Push(t)
	return true
}

// idle reports whether the unit has no queued or in-progress tasks.
func (u *genUnit) idle() bool {
	if u.queue.Len() > 0 {
		return false
	}
	for _, s := range u.streams {
		if s.busy {
			return false
		}
	}
	return true
}

// tick advances every stream one cycle.
func (u *genUnit) tick(cycle uint64) {
	a := u.a
	// Lines the streams are currently consuming; protected from eviction.
	needed := u.needBuf[:0]
	for _, s := range u.streams {
		if s.busy {
			needed = append(needed, a.edgeAddr(s.task.edgeStart+uint64(s.idx))&^(mem.LineBytes-1))
		}
	}
	for _, s := range u.streams {
		if !s.busy {
			if u.queue.Len() == 0 {
				u.stateHist[genStateIdle]++
				continue
			}
			s.task, s.busy = u.queue.Pop(), true
			s.idx = 0
			s.ensured = ^uint64(0)
			s.cur, s.curAddr = nil, ^uint64(0)
			s.memCycles, s.genCycles = 0, 0
			a.stage.AddEventCycles(stageGenBuffer, int64(cycle-s.task.enqueuedAt))
		}
		t := &s.task
		edgeIdx := t.edgeStart + uint64(s.idx)
		addr := a.edgeAddr(edgeIdx)
		line := addr &^ (mem.LineBytes - 1)
		needed = append(needed, line)
		if line != s.curAddr || s.cur == nil {
			// Crossing into a new line — or the current line is still
			// absent (it may have been refused or evicted while the cache
			// was full): (re-)arm the N-block prefetch window and re-find
			// the slot. While current, the slot is eviction-protected, so
			// the cached pointer below stays valid across cycles.
			if line != s.ensured || u.cache.slot(line) == nil {
				lastLine := a.edgeAddr(t.edgeStart+uint64(t.degree)-1) &^ (mem.LineBytes - 1)
				u.cache.ensure(line, lastLine, a.cfg.EdgePrefetchBlocks, t, needed)
				s.ensured = line
			}
			s.cur = u.cache.slot(line)
			s.curAddr = line
		}
		if s.cur == nil || !s.cur.ready {
			s.memCycles++
			u.stateHist[genStateEdgeRead]++
			continue
		}
		u.stateHist[genStateGenerate]++
		s.genCycles++
		if !a.emitEdge(t, s.idx) {
			continue // delivery network full; retry next cycle
		}
		s.idx++
		if s.idx >= t.degree {
			a.stage.AddCycles(stageEdgeMem, s.memCycles)
			a.stage.AddEvent(stageEdgeMem)
			a.stage.AddCycles(stageGenerate, s.genCycles)
			a.stage.AddEvent(stageGenerate)
			s.busy = false
		}
	}
	u.needBuf = needed[:0]
}
