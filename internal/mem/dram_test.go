package mem

import (
	"testing"

	"graphpulse/internal/sim"
)

func run(t *testing.T, m *Memory, done func() bool, max uint64) *sim.Engine {
	t.Helper()
	e := sim.NewEngine()
	e.Register(m)
	if err := e.RunUntil(nil, done, max); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	return e
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.BanksPerChannel = 0 },
		func(c *Config) { c.RowBytes = 8 },
		func(c *Config) { c.RowHitCycles = 0 },
		func(c *Config) { c.RowMissCycles = 1 },
		func(c *Config) { c.BurstCycles = 0 },
		func(c *Config) { c.QueueDepth = 0 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(Config{})
}

func TestSingleReadCompletes(t *testing.T) {
	m := New(DefaultConfig())
	done := false
	m.OnComplete(func(uint32) { done = true })
	if !m.Enqueue(Request{Addr: 0x1000, UsefulBytes: 8}) {
		t.Fatal("Enqueue refused on empty queue")
	}
	run(t, m, func() bool { return done }, 10_000)
	if m.Counters().Reads != 1 {
		t.Errorf("Reads = %d, want 1", m.Counters().Reads)
	}
	if m.Counters().BytesMoved != LineBytes {
		t.Errorf("BytesMoved = %d", m.Counters().BytesMoved)
	}
	if m.Counters().BytesUseful != 8 {
		t.Errorf("BytesUseful = %d, want 8", m.Counters().BytesUseful)
	}
}

func TestWriteCounted(t *testing.T) {
	m := New(DefaultConfig())
	done := false
	m.OnComplete(func(uint32) { done = true })
	m.Enqueue(Request{Addr: 64, Write: true, UsefulBytes: 64})
	run(t, m, func() bool { return done }, 10_000)
	if m.Counters().Writes != 1 || m.Counters().Reads != 0 {
		t.Errorf("Reads/Writes = %d/%d", m.Counters().Reads, m.Counters().Writes)
	}
}

func TestFirstAccessIsRowMiss(t *testing.T) {
	m := New(DefaultConfig())
	done := 0
	m.OnComplete(func(uint32) { done++ })
	m.Enqueue(Request{Addr: 0})
	run(t, m, func() bool { return done == 1 }, 10_000)
	if m.Counters().RowMisses != 1 || m.Counters().RowHits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/1",
			m.Counters().RowHits, m.Counters().RowMisses)
	}
}

func TestSequentialSameRowHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1 // keep the stream on one channel/bank/row
	m := New(cfg)
	done := 0
	m.OnComplete(func(uint32) { done++ })
	for i := 0; i < 8; i++ {
		m.Enqueue(Request{Addr: uint64(i * LineBytes)})
	}
	run(t, m, func() bool { return done == 8 }, 100_000)
	if m.Counters().RowMisses != 1 {
		t.Errorf("RowMisses = %d, want 1 (first access only)", m.Counters().RowMisses)
	}
	if m.Counters().RowHits != 7 {
		t.Errorf("RowHits = %d, want 7", m.Counters().RowHits)
	}
}

func TestRandomAccessesMostlyMiss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	m := New(cfg)
	done := 0
	m.OnComplete(func(uint32) { done++ })
	// Strided far apart: every access opens a new row in the same bank.
	stride := cfg.RowBytes * uint64(cfg.BanksPerChannel) * 2
	for i := 0; i < 8; i++ {
		m.Enqueue(Request{Addr: uint64(i) * stride})
	}
	run(t, m, func() bool { return done == 8 }, 100_000)
	if m.Counters().RowMisses != 8 {
		t.Errorf("RowMisses = %d, want 8", m.Counters().RowMisses)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	const n = 64
	seqCfg := DefaultConfig()
	seq := New(seqCfg)
	doneSeq := 0
	seq.OnComplete(func(uint32) { doneSeq++ })
	e1 := sim.NewEngine()
	e1.Register(seq)
	issued := 0
	for e1.Cycle() < 1_000_000 && doneSeq < n {
		for issued < n && seq.Enqueue(Request{Addr: uint64(issued * LineBytes)}) {
			issued++
		}
		e1.Step()
	}
	seqCycles := e1.Cycle()

	rnd := New(seqCfg)
	doneRnd := 0
	rnd.OnComplete(func(uint32) { doneRnd++ })
	e2 := sim.NewEngine()
	e2.Register(rnd)
	stride := seqCfg.RowBytes*uint64(seqCfg.BanksPerChannel)*uint64(seqCfg.Channels) + LineBytes
	issued = 0
	for e2.Cycle() < 1_000_000 && doneRnd < n {
		for issued < n && rnd.Enqueue(Request{Addr: uint64(issued) * stride}) {
			issued++
		}
		e2.Step()
	}
	rndCycles := e2.Cycle()
	if doneSeq != n || doneRnd != n {
		t.Fatalf("completions: seq=%d rnd=%d", doneSeq, doneRnd)
	}
	if seqCycles >= rndCycles {
		t.Errorf("sequential (%d cycles) not faster than random (%d cycles)", seqCycles, rndCycles)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.QueueDepth = 2
	m := New(cfg)
	if !m.Enqueue(Request{Addr: 0}) || !m.Enqueue(Request{Addr: 64}) {
		t.Fatal("first two enqueues refused")
	}
	if m.Enqueue(Request{Addr: 128}) {
		t.Error("third enqueue accepted with QueueDepth=2")
	}
	if m.Counters().QueueRejects != 1 {
		t.Errorf("QueueRejects = %d", m.Counters().QueueRejects)
	}
}

func TestBandwidthCap(t *testing.T) {
	// Saturate one channel with row-hit traffic; throughput must approach
	// one line per BurstCycles and never exceed it.
	cfg := DefaultConfig()
	cfg.Channels = 1
	m := New(cfg)
	e := sim.NewEngine()
	e.Register(m)
	doneLines := 0
	m.OnComplete(func(uint32) { doneLines++ })
	addr := uint64(0)
	const total = 500
	for doneLines < total {
		for m.Enqueue(Request{Addr: addr % cfg.RowBytes}) {
			addr += LineBytes
		}
		e.Step()
		if e.Cycle() > 1_000_000 {
			t.Fatal("bandwidth test did not complete")
		}
	}
	minCycles := uint64(total) * cfg.BurstCycles
	if e.Cycle() < minCycles {
		t.Errorf("completed %d lines in %d cycles, below the physical bus cap of %d",
			total, e.Cycle(), minCycles)
	}
	// Sustained throughput should be within 25% of the cap.
	if e.Cycle() > minCycles*5/4+uint64(cfg.RowMissCycles) {
		t.Errorf("sustained throughput too low: %d cycles for %d lines (cap %d)",
			e.Cycle(), total, minCycles)
	}
}

func TestChannelParallelism(t *testing.T) {
	// The same load spread over 4 channels should finish close to 4x faster
	// than on 1 channel.
	elapsed := func(channels int) uint64 {
		cfg := DefaultConfig()
		cfg.Channels = channels
		m := New(cfg)
		e := sim.NewEngine()
		e.Register(m)
		done := 0
		m.OnComplete(func(uint32) { done++ })
		const total = 400
		addr := uint64(0)
		for done < total {
			for addr < total*LineBytes && m.Enqueue(Request{Addr: addr}) {
				addr += LineBytes
			}
			e.Step()
			if e.Cycle() > 1_000_000 {
				t.Fatal("did not complete")
			}
		}
		return e.Cycle()
	}
	c1 := elapsed(1)
	c4 := elapsed(4)
	if c4*3 > c1 {
		t.Errorf("4 channels (%d cycles) not ≥3x faster than 1 channel (%d cycles)", c4, c1)
	}
}

func TestUtilization(t *testing.T) {
	m := New(DefaultConfig())
	if m.Utilization() != 1 {
		t.Error("utilization of idle memory != 1")
	}
	done := 0
	m.OnComplete(func(uint32) { done++ })
	m.Enqueue(Request{Addr: 0, UsefulBytes: 16})
	m.Enqueue(Request{Addr: 1 << 20, UsefulBytes: 64})
	run(t, m, func() bool { return done == 2 }, 10_000)
	want := float64(16+64) / float64(2*LineBytes)
	if got := m.Utilization(); got != want {
		t.Errorf("Utilization = %g, want %g", got, want)
	}
}

func TestUsefulBytesClamped(t *testing.T) {
	m := New(DefaultConfig())
	done := false
	m.OnComplete(func(uint32) { done = true })
	m.Enqueue(Request{Addr: 0, UsefulBytes: 500})
	run(t, m, func() bool { return done }, 10_000)
	if got := m.Counters().BytesUseful; got != LineBytes {
		t.Errorf("BytesUseful = %d, want clamped to %d", got, LineBytes)
	}
}

func TestPending(t *testing.T) {
	m := New(DefaultConfig())
	m.Enqueue(Request{Addr: 0})
	if m.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", m.Pending())
	}
	run(t, m, func() bool { return m.Pending() == 0 }, 10_000)
	if got := m.Counters().Reads; got != 1 {
		t.Errorf("Reads = %d after the request drained, want 1", got)
	}
}

func TestRefreshClosesRowsAndCosts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.RefreshInterval = 200
	cfg.RefreshCycles = 50
	m := New(cfg)
	e := sim.NewEngine()
	e.Register(m)
	// Keep a same-row stream going across several refresh windows.
	done := 0
	m.OnComplete(func(uint32) { done++ })
	const total = 150
	issued := 0
	for done < total {
		for issued < total && m.Enqueue(Request{Addr: uint64(issued%8) * LineBytes}) {
			issued++
		}
		e.Step()
		if e.Cycle() > 1_000_000 {
			t.Fatal("did not complete under refresh")
		}
	}
	st := m.Counters()
	if st.Refreshes == 0 {
		t.Error("no refreshes recorded")
	}
	// Each refresh closes the row, so the stream must take more than one
	// row miss despite touching a single row.
	if st.RowMisses < 2 {
		t.Errorf("RowMisses = %d, want ≥ 2 (refresh closes rows)", st.RowMisses)
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 0
	m := New(cfg)
	done := false
	m.OnComplete(func(uint32) { done = true })
	m.Enqueue(Request{Addr: 0})
	run(t, m, func() bool { return done }, 100_000)
	if m.Counters().Refreshes != 0 {
		t.Error("refreshes recorded while disabled")
	}
}

func TestRefreshConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 100
	cfg.RefreshCycles = 0
	if err := cfg.Validate(); err == nil {
		t.Error("refresh interval without duration accepted")
	}
}

// TestCompletionTimesStrictlyIncreasePerChannel pins the invariant that lets
// each channel's service list be a FIFO checked only at its head: under
// row-hit reordering and refresh, a channel still
// completes at most one request per cycle, and every request's Token comes
// back exactly once.
func TestCompletionTimesStrictlyIncreasePerChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 300
	cfg.RefreshCycles = 40
	m := New(cfg)
	const total = 2000
	seen := make([]int, total)
	last := make([]uint64, cfg.Channels)
	var now uint64
	completed := 0
	m.OnComplete(func(tok uint32) {
		seen[tok]++
		completed++
		ch := m.channelOf(tokenAddr(tok, cfg))
		if last[ch] != 0 && now <= last[ch] {
			t.Fatalf("channel %d completed twice by cycle %d", ch, now)
		}
		last[ch] = now
	})
	e := sim.NewEngine()
	e.Register(m)
	issued := 0
	for completed < total {
		for issued < total && m.Enqueue(Request{Addr: tokenAddr(uint32(issued), cfg), Token: uint32(issued)}) {
			issued++
		}
		now = e.Cycle()
		e.Step()
		if e.Cycle() > 1_000_000 {
			t.Fatal("did not complete")
		}
	}
	for tok, n := range seen {
		if n != 1 {
			t.Fatalf("token %d completed %d times", tok, n)
		}
	}
	if m.Counters().Refreshes == 0 {
		t.Fatal("no refreshes: the test must exercise refresh")
	}
}

// tokenAddr spreads request i over channels, banks and a few rows so the
// row-hit-first pick reorders issue against arrival.
func tokenAddr(i uint32, cfg Config) uint64 {
	return uint64(i%97)*LineBytes + uint64(i%5)*cfg.RowBytes*uint64(cfg.BanksPerChannel)*uint64(cfg.Channels)
}
