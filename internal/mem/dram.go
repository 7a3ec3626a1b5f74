// Package mem models the off-chip memory system shared by the GraphPulse
// and Graphicionado accelerator models: a multi-channel DDR3 main memory
// with per-bank row buffers, FR-FCFS-style scheduling, a shared data bus
// per channel, and first-class accounting of off-chip traffic.
//
// It is the stand-in for DRAMSim2 in the paper's methodology. The model is
// request-accurate rather than command-accurate: each 64-byte line access
// pays a row-hit or row-miss latency at its bank, then occupies the channel
// data bus for a burst, which caps sustained bandwidth at the configured
// per-channel rate (4 × 17 GB/s in the paper's Table III).
//
// Two counters feed the paper's figures directly:
//   - total line transfers → Figure 11 (off-chip accesses),
//   - useful bytes vs transferred bytes → Figure 12 (data utilization).
//
// Counters returns the full counter set (reads, writes, row hits/misses,
// bytes, rejects, refreshes) as the fields of a Counters struct, and
// RegisterProbes wires the same counters into a telemetry.Recorder as
// time-resolved series. METRICS.md documents every field and series.
package mem

import (
	"fmt"

	"graphpulse/internal/sim"
	"graphpulse/internal/sim/telemetry"
)

// LineBytes is the off-chip transfer granularity (one DRAM burst).
const LineBytes = 64

// Config sizes and times the memory system. Cycle counts are in accelerator
// clock cycles (1 GHz ⇒ 1 cycle = 1 ns).
type Config struct {
	// Channels is the number of independent memory channels.
	Channels int
	// BanksPerChannel is the number of banks (row buffers) per channel.
	BanksPerChannel int
	// RowBytes is the DRAM row (page) size per bank.
	RowBytes uint64
	// RowHitCycles is access latency when the row buffer holds the row
	// (tCAS-class).
	RowHitCycles uint64
	// RowMissCycles is access latency on a row-buffer miss
	// (tRP+tRCD+tCAS-class).
	RowMissCycles uint64
	// BurstCycles is data-bus occupancy per 64-byte line. 4 cycles at
	// 1 GHz ⇒ 16 GB/s per channel, matching Table III's 17 GB/s channels.
	BurstCycles uint64
	// QueueDepth is the per-channel request queue capacity; Enqueue fails
	// (backpressure) when full.
	QueueDepth int
	// RefreshInterval is the cycles between periodic refreshes per channel
	// (tREFI ≈ 7.8 µs ⇒ 7800 cycles at 1 GHz). 0 disables refresh.
	RefreshInterval uint64
	// RefreshCycles is the channel lock-out per refresh (tRFC class). All
	// row buffers close when a refresh completes.
	RefreshCycles uint64
}

// DefaultConfig matches the paper's Table III memory subsystem.
func DefaultConfig() Config {
	return Config{
		Channels:        4,
		BanksPerChannel: 8,
		RowBytes:        8192,
		RowHitCycles:    14,
		RowMissCycles:   38,
		BurstCycles:     4,
		QueueDepth:      32,
		RefreshInterval: 7800,
		RefreshCycles:   350,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Channels < 1:
		return fmt.Errorf("mem: Channels=%d", c.Channels)
	case c.BanksPerChannel < 1:
		return fmt.Errorf("mem: BanksPerChannel=%d", c.BanksPerChannel)
	case c.RowBytes < LineBytes:
		return fmt.Errorf("mem: RowBytes=%d < line size", c.RowBytes)
	case c.RowHitCycles == 0 || c.RowMissCycles < c.RowHitCycles:
		return fmt.Errorf("mem: hit/miss cycles %d/%d", c.RowHitCycles, c.RowMissCycles)
	case c.BurstCycles == 0:
		return fmt.Errorf("mem: BurstCycles=0")
	case c.QueueDepth < 1:
		return fmt.Errorf("mem: QueueDepth=%d", c.QueueDepth)
	case c.RefreshInterval > 0 && c.RefreshCycles == 0:
		return fmt.Errorf("mem: RefreshInterval set with RefreshCycles=0")
	}
	return nil
}

// Request is one line-granularity memory access. Addr is a byte address;
// the line containing it is transferred.
type Request struct {
	Addr uint64
	// Write marks stores; reads and writes share timing in this model.
	Write bool
	// UsefulBytes is how many of the 64 transferred bytes the issuer will
	// actually consume (Figure 12's numerator). Clamped to LineBytes.
	UsefulBytes uint32
	// Token is handed to the completion handler (see OnComplete) in the
	// cycle the data transfer finishes. The memory does not interpret it.
	Token uint32
}

type inflight struct {
	req Request
	// bank and row are decoded from req.Addr once, at Enqueue.
	bank   int
	row    uint64
	doneAt uint64
}

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64
}

// channel is one independent memory channel. queue holds requests waiting
// for a bank; service holds issued requests in issue order, which is also
// completion order: every issue finishes at least BurstCycles after the
// previous issue on the channel (the data bus is serial and a refresh only
// delays it). So completion times on a channel strictly increase and only
// the head of service can be due.
type channel struct {
	queue       []inflight
	service     sim.FIFO[inflight]
	banks       []bank
	busFreeAt   uint64
	nextRefresh uint64
	// retryAt is the first cycle the queue can issue: when a scan finds
	// every queued request's bank busy, the earliest busyUntil among them.
	// Only an issue changes a bank's busyUntil, so no cycle before it
	// needs a scan; Enqueue lowers it to the new request's bank.
	retryAt uint64
}

// Counters are a Memory's cumulative traffic counts (METRICS.md, "DDR3
// counters").
type Counters struct {
	// Reads counts 64 B line reads serviced.
	Reads int64
	// Writes counts 64 B line writes serviced.
	Writes int64
	// RowHits counts accesses that found their row open.
	RowHits int64
	// RowMisses counts accesses that paid a precharge + activate.
	RowMisses int64
	// BytesMoved is the total off-chip traffic (lines × LineBytes).
	BytesMoved int64
	// BytesUseful is the bytes the issuers declared they consume.
	BytesUseful int64
	// QueueRejects counts Enqueue calls refused by a full channel queue.
	QueueRejects int64
	// Refreshes counts refresh windows that locked a channel.
	Refreshes int64
}

// Memory is the full multi-channel memory system. It implements
// sim.Component.
type Memory struct {
	cfg   Config
	chans []channel
	c     Counters

	// done receives each completed request's Token (nil: none wanted).
	done func(token uint32)
}

// New builds a Memory from cfg, panicking on invalid configuration
// (configurations are compile-time constants in the models).
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{cfg: cfg}
	m.chans = make([]channel, cfg.Channels)
	for i := range m.chans {
		m.chans[i].banks = make([]bank, cfg.BanksPerChannel)
	}
	return m
}

// Name implements sim.Component.
func (m *Memory) Name() string { return "memory" }

// Counters returns the traffic counters so far.
func (m *Memory) Counters() Counters { return m.c }

// OnComplete installs the handler that receives each request's Token in the
// cycle its transfer finishes. There is one handler per Memory: the Fetcher
// that issues into it installs its own.
func (m *Memory) OnComplete(fn func(token uint32)) { m.done = fn }

// RegisterProbes wires this memory's traffic counters into a telemetry
// Recorder under the given component name (see METRICS.md for the series).
// Safe on a nil Recorder (telemetry disabled).
func (m *Memory) RegisterProbes(r *telemetry.Recorder, component string) {
	r.Rate(component, "dram_bytes", "bytes", func() int64 { return m.c.BytesMoved })
	r.Rate(component, "dram_reads", "lines", func() int64 { return m.c.Reads })
	r.Rate(component, "dram_writes", "lines", func() int64 { return m.c.Writes })
	r.Rate(component, "dram_row_hits", "accesses", func() int64 { return m.c.RowHits })
	r.Rate(component, "dram_row_misses", "accesses", func() int64 { return m.c.RowMisses })
	r.Gauge(component, "dram_pending", "requests", func() int64 { return int64(m.Pending()) })
}

// Utilization returns useful bytes / transferred bytes (1 if no traffic).
func (m *Memory) Utilization() float64 {
	if m.c.BytesMoved == 0 {
		return 1
	}
	return float64(m.c.BytesUseful) / float64(m.c.BytesMoved)
}

// channelOf maps a line address to its channel (line-interleaved so
// sequential streams stripe across all channels).
func (m *Memory) channelOf(addr uint64) int {
	return int((addr / LineBytes) % uint64(m.cfg.Channels))
}

func (m *Memory) bankOf(addr uint64) int {
	return int((addr / m.cfg.RowBytes) % uint64(m.cfg.BanksPerChannel))
}

func (m *Memory) rowOf(addr uint64) uint64 {
	return addr / (m.cfg.RowBytes * uint64(m.cfg.BanksPerChannel) * uint64(m.cfg.Channels))
}

// Enqueue submits a request. It returns false (and does nothing) when the
// target channel queue is full; the caller must retry next cycle — that is
// the backpressure path that makes the engines bandwidth-bound.
func (m *Memory) Enqueue(req Request) bool {
	ch := &m.chans[m.channelOf(req.Addr)]
	if len(ch.queue) >= m.cfg.QueueDepth {
		m.c.QueueRejects++
		return false
	}
	if req.UsefulBytes > LineBytes {
		req.UsefulBytes = LineBytes
	}
	b := m.bankOf(req.Addr)
	ch.queue = append(ch.queue, inflight{req: req, bank: b, row: m.rowOf(req.Addr)})
	ch.retryAt = min(ch.retryAt, ch.banks[b].busyUntil)
	return true
}

// Pending returns the number of requests queued or in service.
func (m *Memory) Pending() int {
	n := 0
	for i := range m.chans {
		n += len(m.chans[i].queue) + m.chans[i].service.Len()
	}
	return n
}

// Tick advances every channel one cycle: completes finished transfers,
// then issues at most one new access per channel using row-hit-first
// (FR-FCFS-style) selection.
func (m *Memory) Tick(cycle uint64) {
	for ci := range m.chans {
		ch := &m.chans[ci]
		// Periodic refresh: lock the channel for tRFC and close every row
		// buffer (the next access to each bank is a row miss).
		if m.cfg.RefreshInterval > 0 && cycle >= ch.nextRefresh {
			if ch.nextRefresh == 0 {
				// Stagger channels so refreshes don't align.
				ch.nextRefresh = m.cfg.RefreshInterval * uint64(ci+1) / uint64(len(m.chans))
			} else {
				free := cycle + m.cfg.RefreshCycles
				if free > ch.busFreeAt {
					ch.busFreeAt = free
				}
				for b := range ch.banks {
					ch.banks[b].rowValid = false
				}
				ch.nextRefresh += m.cfg.RefreshInterval
				m.c.Refreshes++
			}
		}
		// Completions: at most the head of the issue-ordered service list
		// (see channel).
		for ch.service.Len() > 0 && ch.service.At(0).doneAt <= cycle {
			m.complete(ch.service.Pop())
		}
		if len(ch.queue) == 0 || cycle < ch.retryAt {
			continue
		}
		// Row-hit-first pick: first queued request whose bank is free and
		// whose row is open; else the oldest request with a free bank.
		pick := -1
		retry := ^uint64(0)
		for i := range ch.queue {
			f := &ch.queue[i]
			b := &ch.banks[f.bank]
			if b.busyUntil > cycle {
				retry = min(retry, b.busyUntil)
				continue
			}
			if b.rowValid && b.openRow == f.row {
				pick = i
				break
			}
			if pick == -1 {
				pick = i
			}
		}
		if pick == -1 {
			ch.retryAt = retry
			continue
		}
		f := ch.queue[pick]
		ch.queue = append(ch.queue[:pick], ch.queue[pick+1:]...)
		b := &ch.banks[f.bank]
		row := f.row
		var access uint64
		if b.rowValid && b.openRow == row {
			access = m.cfg.RowHitCycles
			m.c.RowHits++
		} else {
			access = m.cfg.RowMissCycles
			m.c.RowMisses++
		}
		b.openRow, b.rowValid = row, true
		ready := cycle + access
		if ready < ch.busFreeAt {
			ready = ch.busFreeAt
		}
		done := ready + m.cfg.BurstCycles
		ch.busFreeAt = done
		// Row hits pipeline at the CAS-to-CAS rate (≈ burst length); a miss
		// additionally occupies the bank for the precharge+activate window.
		b.busyUntil = cycle + (access - m.cfg.RowHitCycles) + m.cfg.BurstCycles
		f.doneAt = done
		ch.service.Push(f)
	}
}

func (m *Memory) complete(f inflight) {
	if f.req.Write {
		m.c.Writes++
	} else {
		m.c.Reads++
	}
	m.c.BytesMoved += LineBytes
	m.c.BytesUseful += int64(f.req.UsefulBytes)
	if m.done != nil {
		m.done(f.req.Token)
	}
}
