package mem

import (
	"testing"

	"graphpulse/internal/sim"
)

func TestFetcherZeroBytes(t *testing.T) {
	f := NewFetcher(New(DefaultConfig()))
	done := false
	f.Fetch(0, 0, 0, false, func(uint64) { done = true }, 0)
	if !done {
		t.Error("zero-byte fetch did not complete immediately")
	}
	if !f.Idle() {
		t.Error("fetcher not idle after zero-byte fetch")
	}
}

func TestFetcherSingleLine(t *testing.T) {
	m := New(DefaultConfig())
	f := NewFetcher(m)
	done := false
	f.Fetch(100, 8, 8, false, func(uint64) { done = true }, 0)
	if f.PendingLines() != 1 {
		t.Fatalf("PendingLines = %d, want 1", f.PendingLines())
	}
	e := sim.NewEngine()
	e.Register(m)
	for !done {
		f.Pump()
		e.Step()
		if e.Cycle() > 10_000 {
			t.Fatal("fetch never completed")
		}
	}
	if m.Counters().Reads != 1 {
		t.Errorf("Reads = %d, want 1", m.Counters().Reads)
	}
}

func TestFetcherSpansLines(t *testing.T) {
	m := New(DefaultConfig())
	f := NewFetcher(m)
	// 8 bytes starting 4 bytes before a line boundary → 2 lines.
	f.Fetch(60, 8, 8, false, nil, 0)
	if f.PendingLines() != 2 {
		t.Errorf("PendingLines = %d, want 2", f.PendingLines())
	}
	// 130 bytes from 0 → 3 lines.
	f2 := NewFetcher(m)
	f2.Fetch(0, 130, 130, false, nil, 0)
	if f2.PendingLines() != 3 {
		t.Errorf("PendingLines = %d, want 3", f2.PendingLines())
	}
}

func TestFetcherCallbackFiresOnceAfterAllLines(t *testing.T) {
	m := New(DefaultConfig())
	f := NewFetcher(m)
	calls := 0
	f.Fetch(0, 1024, 1024, false, func(uint64) { calls++ }, 0)
	e := sim.NewEngine()
	e.Register(m)
	for calls == 0 {
		f.Pump()
		e.Step()
		if e.Cycle() > 100_000 {
			t.Fatal("fetch never completed")
		}
	}
	// Run extra cycles; callback must not refire.
	for i := 0; i < 1000; i++ {
		e.Step()
	}
	if calls != 1 {
		t.Errorf("callback fired %d times, want 1", calls)
	}
	if got := m.Counters().Reads; got != 1024/LineBytes {
		t.Errorf("Reads = %d, want %d", got, 1024/LineBytes)
	}
}

func TestFetcherUsefulDistribution(t *testing.T) {
	m := New(DefaultConfig())
	f := NewFetcher(m)
	// 3 lines transferred, only 80 bytes useful: 64 + 16 + 0.
	done := false
	f.Fetch(0, 192, 80, false, func(uint64) { done = true }, 0)
	e := sim.NewEngine()
	e.Register(m)
	for !done {
		f.Pump()
		e.Step()
		if e.Cycle() > 100_000 {
			t.Fatal("fetch never completed")
		}
	}
	if got := m.Counters().BytesUseful; got != 80 {
		t.Errorf("BytesUseful = %d, want 80", got)
	}
	if got := m.Counters().BytesMoved; got != 192 {
		t.Errorf("BytesMoved = %d, want 192", got)
	}
}

func TestFetcherBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.QueueDepth = 2
	m := New(cfg)
	f := NewFetcher(m)
	done := false
	f.Fetch(0, 10*LineBytes, 10*LineBytes, false, func(uint64) { done = true }, 0)
	f.Pump()
	if f.PendingLines() != 8 { // 2 accepted, 8 staged
		t.Errorf("PendingLines after first pump = %d, want 8", f.PendingLines())
	}
	e := sim.NewEngine()
	e.Register(m)
	for !done {
		f.Pump()
		e.Step()
		if e.Cycle() > 100_000 {
			t.Fatal("fetch never completed under backpressure")
		}
	}
	if m.Counters().Reads != 10 {
		t.Errorf("Reads = %d, want 10", m.Counters().Reads)
	}
}

// TestFetcherLineStraddleUseful checks the useful-byte split for a small
// fetch that straddles a line boundary: the policy charges useful bytes
// first-to-last, so the first line absorbs all 8 useful bytes and the
// second line is pure overfetch.
func TestFetcherLineStraddleUseful(t *testing.T) {
	m := New(DefaultConfig())
	f := NewFetcher(m)
	done := false
	f.Fetch(LineBytes-4, 8, 8, false, func(uint64) { done = true }, 0)
	if f.PendingLines() != 2 {
		t.Fatalf("PendingLines = %d, want 2", f.PendingLines())
	}
	if f.pending.At(0).useful != 8 || f.pending.At(1).useful != 0 {
		t.Errorf("useful split = (%d,%d), want (8,0)", f.pending.At(0).useful, f.pending.At(1).useful)
	}
	if f.pending.At(0).addr != 0 || f.pending.At(1).addr != LineBytes {
		t.Errorf("line addrs = (%d,%d), want (0,%d)", f.pending.At(0).addr, f.pending.At(1).addr, LineBytes)
	}
	e := sim.NewEngine()
	e.Register(m)
	for !done {
		f.Pump()
		e.Step()
		if e.Cycle() > 100_000 {
			t.Fatal("fetch never completed")
		}
	}
	if got := m.Counters().BytesUseful; got != 8 {
		t.Errorf("BytesUseful = %d, want 8", got)
	}
	if got := m.Counters().BytesMoved; got != 2*LineBytes {
		t.Errorf("BytesMoved = %d, want %d", got, 2*LineBytes)
	}
}

// TestFetcherZeroUseful models a zero-degree vertex: its CSR row is
// touched (a full line transfers) but no edge data is consumed, so the
// whole transfer is overfetch.
func TestFetcherZeroUseful(t *testing.T) {
	m := New(DefaultConfig())
	f := NewFetcher(m)
	done := false
	f.Fetch(0, LineBytes, 0, false, func(uint64) { done = true }, 0)
	e := sim.NewEngine()
	e.Register(m)
	for !done {
		f.Pump()
		e.Step()
		if e.Cycle() > 100_000 {
			t.Fatal("fetch never completed")
		}
	}
	if got := m.Counters().BytesUseful; got != 0 {
		t.Errorf("BytesUseful = %d, want 0", got)
	}
	if got := m.Counters().BytesMoved; got != LineBytes {
		t.Errorf("BytesMoved = %d, want %d", got, LineBytes)
	}
}

// TestFetcherBoundaryAlignment pins the line-splitting arithmetic at the
// edges: exact-line fetches stay single-line, the last byte of a line does
// not spill into the next, and the first byte of the next line maps there.
func TestFetcherBoundaryAlignment(t *testing.T) {
	cases := []struct {
		addr, bytes uint64
		lines       int
		firstLine   uint64
	}{
		{0, LineBytes, 1, 0},                 // exactly one aligned line
		{LineBytes, LineBytes, 1, LineBytes}, // aligned to the second line
		{LineBytes - 1, 1, 1, 0},             // last byte of line 0
		{LineBytes, 1, 1, LineBytes},         // first byte of line 1
		{LineBytes - 1, 2, 2, 0},             // minimal straddle
		{0, 2 * LineBytes, 2, 0},             // two full lines
	}
	for _, tc := range cases {
		f := NewFetcher(New(DefaultConfig()))
		f.Fetch(tc.addr, tc.bytes, tc.bytes, false, nil, 0)
		if f.PendingLines() != tc.lines {
			t.Errorf("Fetch(%d,%d): %d lines, want %d", tc.addr, tc.bytes, f.PendingLines(), tc.lines)
			continue
		}
		if f.pending.At(0).addr != tc.firstLine {
			t.Errorf("Fetch(%d,%d): first line at %d, want %d", tc.addr, tc.bytes, f.pending.At(0).addr, tc.firstLine)
		}
	}
}

// TestFetcherFIFOAcrossGroupsUnderBackpressure stages several fetch groups
// into a deliberately shallow memory queue and checks that completions fire
// in issue order — the fetcher must not reorder or starve an earlier group
// when Pump hits backpressure mid-group.
func TestFetcherFIFOAcrossGroupsUnderBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.QueueDepth = 1
	m := New(cfg)
	f := NewFetcher(m)
	var order []int
	record := func(tag uint64) { order = append(order, int(tag)) }
	f.Fetch(0, 3*LineBytes, 3*LineBytes, false, record, 0)
	f.Fetch(8*LineBytes, LineBytes, LineBytes, false, record, 1)
	f.Fetch(16*LineBytes, 2*LineBytes, 2*LineBytes, true, record, 2)
	e := sim.NewEngine()
	e.Register(m)
	for len(order) < 3 {
		f.Pump()
		e.Step()
		if e.Cycle() > 100_000 {
			t.Fatalf("groups stalled; completed so far: %v", order)
		}
	}
	for i, want := range []int{0, 1, 2} {
		if order[i] != want {
			t.Fatalf("completion order = %v, want [0 1 2]", order)
		}
	}
	if got := m.Counters().Reads; got != 4 {
		t.Errorf("Reads = %d, want 4", got)
	}
	if got := m.Counters().Writes; got != 2 {
		t.Errorf("Writes = %d, want 2", got)
	}
}

func TestFetcherWrite(t *testing.T) {
	m := New(DefaultConfig())
	f := NewFetcher(m)
	done := false
	f.Fetch(0, 128, 128, true, func(uint64) { done = true }, 0)
	e := sim.NewEngine()
	e.Register(m)
	for !done {
		f.Pump()
		e.Step()
		if e.Cycle() > 100_000 {
			t.Fatal("write never completed")
		}
	}
	if m.Counters().Writes != 2 {
		t.Errorf("Writes = %d, want 2", m.Counters().Writes)
	}
}

// TestFetcherRecyclesGroups: completed ranges return their group slot to
// the free list, so a steady stream of fetches keeps the group table at
// its in-flight high-water mark and allocates nothing per fetch.
func TestFetcherRecyclesGroups(t *testing.T) {
	m := New(DefaultConfig())
	f := NewFetcher(m)
	e := sim.NewEngine()
	e.Register(m)
	completed := 0
	var lastTag uint64
	done := func(tag uint64) { completed++; lastTag = tag }
	step := func(i int) {
		f.Fetch(uint64(i)*LineBytes, LineBytes, LineBytes, false, done, uint64(i))
		for completed <= i {
			f.Pump()
			e.Step()
		}
	}
	i := 0
	for ; i < 100; i++ {
		step(i)
	}
	if len(f.groups) != 1 {
		t.Errorf("group table holds %d slots for one range in flight at a time, want 1", len(f.groups))
	}
	if lastTag != 99 {
		t.Errorf("completion tag = %d, want 99", lastTag)
	}
	if allocs := testing.AllocsPerRun(100, func() { step(i); i++ }); allocs != 0 {
		t.Errorf("steady-state fetch allocates %.1f/op, want 0", allocs)
	}
}
