// Package fault is the deterministic fault injector shared by every
// hardware model in this repository. Components opt in at explicit
// interposition points — event delivery into the coalescing queue complex
// (drop / duplicate / reorder), vertex property reads (bit flips), DRAM
// transaction completion (transient failures that force a retry), spill
// buffer swap-in (lost events), and the cluster interconnect (link kill /
// degrade).
//
// The injector exists to turn the conformance harness's "all engines agree
// on clean runs" into "the accelerator model detects and survives dirty
// ones": every injected fault is either recovered transparently (duplicate
// discard, DRAM retry, spill re-read, link re-route) or detected by the
// event-conservation watchdog in internal/core, which reports a structured
// core.ErrConservation instead of wedging until MaxCycles.
//
// # Determinism
//
// Faults are a pure function of (Config.Seed, interposition point, call
// sequence number): each Point keeps its own call counter, and every
// decision hashes (seed, point, counter) through a splitmix64 finalizer
// (internal/seeded, the stream the serving-tier chaos proxy shares).
// Because the simulators are themselves deterministic, the k-th decision at
// a point happens at the same cycle in every run, so two runs with the same
// seed and rates are bit-identical — including which events are dropped and
// which bits flip. There is no shared global stream: probing one point never
// perturbs another.
//
// A nil *Injector is the disabled injector: every method is nil-safe and
// free, mirroring the nil telemetry.Recorder convention, so the hot paths
// carry no fault-injection cost when faults are off.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"graphpulse/internal/seeded"
)

// Point identifies one interposition point. Each point draws from its own
// deterministic decision stream.
type Point uint8

const (
	// PointQueueDrop drops an event at delivery into the coalescing queue.
	PointQueueDrop Point = iota
	// PointQueueDup re-delivers an event a second time (marked Redelivered).
	PointQueueDup
	// PointQueueReorder swaps an event with a later one in the delivery
	// network, perturbing arrival order.
	PointQueueReorder
	// PointVertexBitFlip flips one mantissa bit of a vertex property read.
	PointVertexBitFlip
	// PointDRAM fails a DRAM transaction at completion, forcing a
	// retry-with-backoff in the memory controller.
	PointDRAM
	// PointSpillLoss loses a spilled event during slice swap-in; the spill
	// recovery path re-reads it from the journaled spill region.
	PointSpillLoss
	// PointLinkKill drops an event on a cluster interconnect link.
	PointLinkKill
	// PointLinkDegrade multiplies one link traversal's latency.
	PointLinkDegrade
	numPoints
)

// pointNames label the points in Snapshot order.
var pointNames = [numPoints]string{
	"queue_drop", "queue_dup", "queue_reorder", "vertex_bit_flip",
	"dram_fault", "spill_loss", "link_kill", "link_degrade",
}

// String returns the snake_case point name used in counters and reports.
func (p Point) String() string {
	if p < numPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Config selects the fault mix. All rates are per-opportunity probabilities
// in [0, 1]; the zero value disables injection entirely.
type Config struct {
	// Seed selects the deterministic fault stream. Two runs with equal
	// Config produce bit-identical fault sequences.
	Seed uint64

	// DropRate drops events at queue delivery (detected by the
	// event-conservation watchdog).
	DropRate float64
	// DuplicateRate re-delivers events (discarded idempotently by the
	// coalescer's redelivery check).
	DuplicateRate float64
	// ReorderRate perturbs delivery order inside the crossbar buffer
	// (harmless by design: coalescing reduce operators are commutative).
	ReorderRate float64
	// BitFlipRate flips one mantissa bit per faulted vertex property read
	// (the run completes; values may be corrupted — silent data corruption).
	BitFlipRate float64
	// DRAMFaultRate fails DRAM transactions at completion; the controller
	// retries with exponential backoff.
	DRAMFaultRate float64
	// SpillLossRate loses spilled events at slice swap-in; recovery re-reads
	// them from the journaled spill region.
	SpillLossRate float64
	// LinkKillRate drops events on interconnect links (detected by the
	// cluster-level conservation watchdog).
	LinkKillRate float64
	// LinkDegradeRate multiplies a link traversal's latency by
	// DegradeFactor.
	LinkDegradeRate float64

	// DegradeFactor is the latency multiplier for degraded link traversals
	// (0 means the default of 8).
	DegradeFactor uint64
}

// Enabled reports whether any fault class has a nonzero rate.
func (c Config) Enabled() bool {
	for _, r := range c.rates() {
		if r > 0 {
			return true
		}
	}
	return false
}

// rates returns the per-point rate vector in Point order.
func (c Config) rates() [numPoints]float64 {
	return [numPoints]float64{
		c.DropRate, c.DuplicateRate, c.ReorderRate, c.BitFlipRate,
		c.DRAMFaultRate, c.SpillLossRate, c.LinkKillRate, c.LinkDegradeRate,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	for p, r := range c.rates() {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("fault: %s rate %g outside [0,1]", Point(p), r)
		}
	}
	return nil
}

// WithSeed returns a copy of c with the seed replaced; cluster chips use it
// to derive independent per-chip streams from one configured seed.
func (c Config) WithSeed(seed uint64) Config {
	c.Seed = seed
	return c
}

// specKeys maps -faults spec keys to config fields, in documentation order.
var specKeys = []string{"drop", "dup", "reorder", "bitflip", "dram", "spill", "linkkill", "linkdegrade"}

// ParseSpec parses a compact fault specification of the form
//
//	"drop=1e-4,dup=1e-3,seed=42"
//
// Keys: drop, dup, reorder, bitflip, dram, spill, linkkill, linkdegrade
// (rates in [0,1]), seed (uint), degrade (latency factor). Unknown keys and
// out-of-range rates are errors. The empty string parses to the disabled
// zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	err := seeded.ParseSpec("fault", spec, &c.Seed, func(key, val string) error {
		if key == "degrade" {
			d, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return fmt.Errorf("fault: bad degrade factor %q: %v", val, err)
			}
			c.DegradeFactor = d
			return nil
		}
		field := map[string]*float64{
			"drop": &c.DropRate, "dup": &c.DuplicateRate, "reorder": &c.ReorderRate,
			"bitflip": &c.BitFlipRate, "dram": &c.DRAMFaultRate, "spill": &c.SpillLossRate,
			"linkkill": &c.LinkKillRate, "linkdegrade": &c.LinkDegradeRate,
		}[key]
		if field == nil {
			return fmt.Errorf("fault: unknown spec key %q (want %s, seed, degrade)",
				key, strings.Join(specKeys, ", "))
		}
		r, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("fault: bad rate %q for %q: %v", val, key, err)
		}
		*field = r
		return nil
	})
	if err != nil {
		return c, err
	}
	return c, c.Validate()
}

// Injector draws deterministic fault decisions. The nil *Injector is the
// disabled injector: every method is safe and free on it.
type Injector struct {
	cfg    Config
	rates  [numPoints]float64
	draws  seeded.Stream
	counts [numPoints]int64
}

// New returns an injector for cfg, or nil when cfg injects nothing (every
// rate zero). It panics on an invalid cfg — fault configurations are
// validated by the engine Config.Validate paths before reaching here.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, rates: cfg.rates(), draws: seeded.New(cfg.Seed, int(numPoints))}
}

// Decide reports whether the next opportunity at point p faults. Nil-safe;
// a true return is counted in Snapshot.
func (in *Injector) Decide(p Point) bool {
	if in == nil || in.rates[p] == 0 {
		return false
	}
	if in.draws.Uniform(int(p)) >= in.rates[p] {
		return false
	}
	in.counts[p]++
	return true
}

// Pick returns a deterministic index in [0,n) from point p's stream (0 when
// n <= 1 or the injector is disabled). Reorder uses it to select a swap
// partner.
func (in *Injector) Pick(p Point, n int) int {
	if in == nil || n <= 1 {
		return 0
	}
	return int(seeded.Mix(in.cfg.Seed^uint64(p)<<56^0xa5a5a5a5<<8^in.draws.Next(int(p))) % uint64(n))
}

// CorruptFloat flips one of the low 52 (mantissa) bits of v, modeling a
// single-event upset in a vertex property SRAM read. Restricting the flip
// to mantissa bits keeps the exponent intact, so a finite value stays
// finite and the computation converges (possibly to corrupted values —
// exactly the silent-data-corruption scenario the fault sweeps measure).
// Non-finite inputs are returned unchanged: flipping a mantissa bit of
// ±Inf would manufacture a NaN, which is a different fault class.
func (in *Injector) CorruptFloat(v float64) float64 {
	if in == nil {
		return v
	}
	bit := uint(in.draws.Next(int(PointVertexBitFlip)) % 52)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Float64frombits(math.Float64bits(v) ^ 1<<bit)
}

// DegradeFactor returns the configured link-latency multiplier.
func (in *Injector) DegradeFactor() uint64 {
	if in == nil || in.cfg.DegradeFactor == 0 {
		return 8
	}
	return in.cfg.DegradeFactor
}

// Count returns how many faults have been injected at point p (0 on nil).
func (in *Injector) Count(p Point) int64 {
	if in == nil {
		return 0
	}
	return in.counts[p]
}

// Snapshot returns the injected-fault counts by point name, omitting
// zero-count points. Nil-safe (returns nil).
func (in *Injector) Snapshot() map[string]int64 {
	if in == nil {
		return nil
	}
	out := make(map[string]int64)
	for p := Point(0); p < numPoints; p++ {
		if in.counts[p] > 0 {
			out[p.String()] = in.counts[p]
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Total returns the total number of injected faults across all points.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for _, c := range in.counts {
		t += c
	}
	return t
}

// FormatSnapshot renders a snapshot deterministically ("a=1 b=2"), for
// logs and failure messages.
func FormatSnapshot(snap map[string]int64) string {
	if len(snap) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, snap[k])
	}
	return b.String()
}
