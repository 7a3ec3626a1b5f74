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
	unit  *genUnit
	addrs []uint64
	lines []ecLine
	// onLine is the fill completion, bound once; its tag is the slot.
	onLine func(tag uint64)
}

type ecLine struct {
	valid bool
	ready bool
}

func newEdgeCache(u *genUnit, capLines int) *edgeCache {
	c := &edgeCache{
		unit:  u,
		addrs: make([]uint64, capLines),
		lines: make([]ecLine, capLines),
	}
	c.onLine = c.lineDone
	return c
}

// lineDone marks slot `slot` filled and wakes the unit if a stream waits
// on it. A pending line is never evicted, so the slot still holds the line
// that was fetched.
func (c *edgeCache) lineDone(slot uint64) {
	l := &c.lines[slot]
	l.ready = true
	if u := c.unit; u.asleep && u.waitsOn(l) {
		u.wake(u.a.engine.Cycle())
	}
}

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
// It reports whether it fetched anything.
func (c *edgeCache) ensure(addr, lastLine uint64, n int, t *genTask, needed []uint64) (fetched bool) {
	for i := 0; i < n; i++ {
		line := addr + uint64(i)*mem.LineBytes
		if line > lastLine {
			return fetched
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
			return fetched
		}
		c.addrs[victim] = line
		c.lines[victim] = ecLine{valid: true}
		a := c.unit.a
		a.fetch.Fetch(line, mem.LineBytes, a.edgeLineUseful(line, t), false, c.onLine, uint64(victim))
		fetched = true
	}
	return fetched
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
	proc      *processor // submits here; woken by a pop if stalled
	queue     sim.FIFO[genTask]
	streams   []*genStream
	cache     *edgeCache
	stateHist [numGenStates]int64
	needBuf   []uint64 // reusable per-tick protection set

	// A unit whose busy streams all wait on edge lines, with nothing left
	// to pop, is not ticked: a fill one of its streams needs or a submit
	// to an idle stream wakes it, and each stream is credited the cycles
	// from sleepSince on in bulk (see credit).
	asleep     bool
	sleepSince uint64
}

func newGenUnit(a *Accelerator, p *processor) *genUnit {
	u := &genUnit{a: a, proc: p}
	u.cache = newEdgeCache(u, a.cfg.EdgeCacheLines)
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
	if u.asleep && u.hasIdleStream() {
		u.wake(u.a.engine.Cycle())
	}
	return true
}

func (u *genUnit) hasIdleStream() bool {
	for _, s := range u.streams {
		if !s.busy {
			return true
		}
	}
	return false
}

// waitsOn reports whether filling l can unblock a stream: l is a stream's
// current line, or some stream's line was refused a slot and a filled line
// may now be evicted for it.
func (u *genUnit) waitsOn(l *ecLine) bool {
	for _, s := range u.streams {
		if s.busy && (s.cur == l || s.cur == nil) {
			return true
		}
	}
	return false
}

// credit adds the slept cycles before upTo to every stream: a busy stream
// waited on edge memory, an idle one sat idle.
func (u *genUnit) credit(upTo uint64) {
	n := int64(upTo - u.sleepSince)
	for _, s := range u.streams {
		if s.busy {
			s.memCycles += n
			u.stateHist[genStateEdgeRead] += n
		} else {
			u.stateHist[genStateIdle] += n
		}
	}
	u.sleepSince = upTo
}

// wake credits the slept cycles and resumes ticking at cycle resume.
func (u *genUnit) wake(resume uint64) {
	u.credit(resume)
	u.asleep = false
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

// tick advances every stream one cycle. The unit then sleeps if no stream
// could act before a fill or a submit: no stream generated (so every busy
// one waits on its line and, with all streams busy or the queue empty,
// nothing is left to pop), and each waiting stream either holds a slot for
// its line (it re-checks nothing but that slot) or was refused one in a
// tick that fetched and popped nothing (its retry would fail the same way).
func (u *genUnit) tick(cycle uint64) {
	a := u.a
	generated, changed, refused := false, false, false
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
			changed = true
			if p := u.proc; p.asleep && p.sleepState == procStateStalling {
				p.wake(cycle + 1) // it ticked before this pop
			}
			s.idx = 0
			s.ensured = ^uint64(0)
			s.cur, s.curAddr = nil, ^uint64(0)
			s.memCycles, s.genCycles = 0, 0
			a.stageEvent(stageGenBuffer, int64(cycle-s.task.enqueuedAt))
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
				if u.cache.ensure(line, lastLine, a.cfg.EdgePrefetchBlocks, t, needed) {
					changed = true
				}
				s.ensured = line
			}
			s.cur = u.cache.slot(line)
			s.curAddr = line
		}
		if s.cur == nil || !s.cur.ready {
			s.memCycles++
			u.stateHist[genStateEdgeRead]++
			refused = refused || s.cur == nil
			continue
		}
		generated = true
		u.stateHist[genStateGenerate]++
		s.genCycles++
		if !a.emitEdge(t, s.idx) {
			continue // delivery network full; retry next cycle
		}
		s.idx++
		if s.idx >= t.degree {
			a.stageEvent(stageEdgeMem, s.memCycles)
			a.stageEvent(stageGenerate, s.genCycles)
			s.busy = false
		}
	}
	u.needBuf = needed[:0]
	if !generated && (!refused || !changed) {
		u.asleep, u.sleepSince = true, cycle+1
	}
}
