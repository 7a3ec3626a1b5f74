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
// Stats exposes the full counter set (reads, writes, row hits/misses,
// bytes, rejects, refreshes, and a latency histogram) as a stats.Set, and
// RegisterProbes wires the same counters into a telemetry.Recorder as
// time-resolved series. METRICS.md documents every name.
package mem

import (
	"fmt"

	"graphpulse/internal/sim"
	"graphpulse/internal/sim/fault"
	"graphpulse/internal/sim/stats"
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
	bank     int
	row      uint64
	doneAt   uint64
	enqueued uint64
	// attempts counts failed tries of this transaction (fault injection);
	// notBefore holds it out of scheduling until its backoff expires.
	attempts  int
	notBefore uint64
}

// Retry policy for injected transaction failures: exponential backoff
// starting at dramRetryBackoff cycles, and after dramMaxAttempts failures
// the transaction is forced through (a real controller would raise a
// machine-check; the model guarantees forward progress so a fault sweep
// measures slowdown, not hangs).
const (
	dramRetryBackoff = 16
	dramMaxAttempts  = 8
)

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64
}

// channel is one independent memory channel. queue holds requests waiting
// for a bank; service holds issued requests in issue order, which is also
// completion order: every issue finishes at least BurstCycles after the
// previous issue on the channel (the data bus is serial and a refresh only
// delays it), and a faulted transfer retries through queue, not service. So
// completion times on a channel strictly increase and only the head of
// service can be due.
type channel struct {
	queue       []inflight
	service     sim.FIFO[inflight]
	banks       []bank
	busFreeAt   uint64
	nextRefresh uint64
}

// Memory is the full multi-channel memory system. It implements
// sim.Component.
type Memory struct {
	cfg   Config
	chans []channel
	stats *stats.Set
	lat   *stats.Histogram
	cycle uint64

	// Hot-path counters (folded into Stats() on read).
	reads, writes        int64
	rowHits, rowMisses   int64
	bytesMoved, bytesUse int64
	rejects              int64
	refreshes            int64
	faults, retries      int64

	// inj, when non-nil, fails transactions at completion time so the
	// retry-with-backoff path gets exercised (see InjectFaults).
	inj *fault.Injector
	// done receives each completed request's Token (nil: none wanted).
	done func(token uint32)
}

// New builds a Memory from cfg, panicking on invalid configuration
// (configurations are compile-time constants in the models).
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{cfg: cfg, stats: stats.NewSet()}
	m.lat = m.stats.Histogram("latency", []int64{16, 32, 64, 128, 256, 512, 1024})
	m.chans = make([]channel, cfg.Channels)
	for i := range m.chans {
		m.chans[i].banks = make([]bank, cfg.BanksPerChannel)
	}
	return m
}

// Name implements sim.Component.
func (m *Memory) Name() string { return "memory" }

// Stats exposes the traffic counters:
//
//	reads, writes        – line transfers by kind
//	row_hits, row_misses – row-buffer behaviour
//	bytes_transferred    – total off-chip bytes (lines × 64)
//	bytes_useful         – bytes the issuers declared they consume
func (m *Memory) Stats() *stats.Set {
	set := func(name string, v int64) {
		m.stats.Add(name, v-m.stats.Counter(name))
	}
	set("reads", m.reads)
	set("writes", m.writes)
	set("row_hits", m.rowHits)
	set("row_misses", m.rowMisses)
	set("bytes_transferred", m.bytesMoved)
	set("bytes_useful", m.bytesUse)
	set("queue_rejects", m.rejects)
	set("refreshes", m.refreshes)
	set("dram_faults", m.faults)
	set("dram_retries", m.retries)
	return m.stats
}

// InjectFaults attaches a fault injector (nil = disabled): transactions
// fail at completion with the injector's DRAM fault rate and are retried
// with exponential backoff. Failed transfers still occupied the bank and
// bus, so faults cost bandwidth and latency but never lose a request —
// the completion handler sees each request exactly once, on the try that
// succeeds.
func (m *Memory) InjectFaults(inj *fault.Injector) { m.inj = inj }

// OnComplete installs the handler that receives each request's Token in the
// cycle its transfer finishes. There is one handler per Memory: the Fetcher
// that issues into it installs its own.
func (m *Memory) OnComplete(fn func(token uint32)) { m.done = fn }

// RegisterProbes wires this memory's traffic counters into a telemetry
// Recorder under the given component name (see METRICS.md for the series).
// Safe on a nil Recorder (telemetry disabled).
func (m *Memory) RegisterProbes(r *telemetry.Recorder, component string) {
	r.Rate(component, "dram_bytes", "bytes", func() int64 { return m.bytesMoved })
	r.Rate(component, "dram_reads", "lines", func() int64 { return m.reads })
	r.Rate(component, "dram_writes", "lines", func() int64 { return m.writes })
	r.Rate(component, "dram_row_hits", "accesses", func() int64 { return m.rowHits })
	r.Rate(component, "dram_row_misses", "accesses", func() int64 { return m.rowMisses })
	r.Gauge(component, "dram_pending", "requests", func() int64 { return int64(m.Pending()) })
}

// Utilization returns useful bytes / transferred bytes (1 if no traffic).
func (m *Memory) Utilization() float64 {
	if m.bytesMoved == 0 {
		return 1
	}
	return float64(m.bytesUse) / float64(m.bytesMoved)
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
		m.rejects++
		return false
	}
	if req.UsefulBytes > LineBytes {
		req.UsefulBytes = LineBytes
	}
	ch.queue = append(ch.queue, inflight{
		req: req, bank: m.bankOf(req.Addr), row: m.rowOf(req.Addr), enqueued: m.cycle,
	})
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
	m.cycle = cycle
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
				m.refreshes++
			}
		}
		// Completions: at most the head of the issue-ordered service list
		// (see channel).
		for ch.service.Len() > 0 && ch.service.At(0).doneAt <= cycle {
			fin := ch.service.Pop()
			// Injected transaction failure: the transfer is discarded at
			// completion (it already paid its bank and bus time) and the
			// request requeues after an exponential backoff. The queue-
			// depth bound is not enforced for retries — the controller
			// holds its own failed requests rather than dropping them.
			if fin.attempts < dramMaxAttempts && m.inj.Decide(fault.PointDRAM) {
				m.faults++
				m.retries++
				fin.attempts++
				fin.notBefore = cycle + dramRetryBackoff<<(fin.attempts-1)
				fin.doneAt = 0
				ch.queue = append(ch.queue, fin)
				continue
			}
			m.complete(fin)
		}
		if len(ch.queue) == 0 {
			continue
		}
		// Row-hit-first pick: first queued request whose bank is free and
		// whose row is open; else the oldest request with a free bank.
		pick := -1
		for i := range ch.queue {
			f := &ch.queue[i]
			if f.notBefore > cycle {
				continue // backing off after an injected failure
			}
			b := &ch.banks[f.bank]
			if b.busyUntil > cycle {
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
			continue
		}
		f := ch.queue[pick]
		ch.queue = append(ch.queue[:pick], ch.queue[pick+1:]...)
		b := &ch.banks[f.bank]
		row := f.row
		var access uint64
		if b.rowValid && b.openRow == row {
			access = m.cfg.RowHitCycles
			m.rowHits++
		} else {
			access = m.cfg.RowMissCycles
			m.rowMisses++
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
		m.writes++
	} else {
		m.reads++
	}
	m.bytesMoved += LineBytes
	m.bytesUse += int64(f.req.UsefulBytes)
	m.lat.Observe(int64(f.doneAt - f.enqueued))
	if m.done != nil {
		m.done(f.req.Token)
	}
}
