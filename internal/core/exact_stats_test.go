package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim/fault"
)

var updateExact = flag.Bool("update", false, "rewrite testdata/exact_stats.golden from the current simulator")

// TestExactStatsGolden pins every simulated statistic of both cycle models
// to a file written by an earlier build. The determinism tests compare a
// build with itself; this one compares it with its history, so a hot-path
// rewrite that moves one cycle, one row hit or one RNG draw fails here.
//
// The configurations cover each completion path of the models: the
// prefetching optimized design, the baseline's direct reads and
// in-processor generation, a sliced queue (spill and swap-in), injected
// DRAM retries with queue duplication and reordering (pins the order of
// fault draws), a 2-chip cluster, and Graphicionado with and without DRAM
// faults. Regenerate with -update only for an intended model change.
func TestExactStatsGolden(t *testing.T) {
	g, err := gen.RMAT(*faultTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	root := hubRoot(g)
	algs := []func() algorithms.Algorithm{
		func() algorithms.Algorithm { return algorithms.NewPageRankDelta() },
		func() algorithms.Algorithm { return algorithms.NewSSSP(root) },
	}
	faults := fault.Config{Seed: 11, DRAMFaultRate: 1e-2, DuplicateRate: 1e-2, ReorderRate: 1e-2, SpillLossRate: 1e-2}

	sliced := OptimizedConfig()
	sliced.Name = "sliced"
	sliced.QueueCapacity = g.NumVertices() / 4
	faulty := sliced
	faulty.Name = "faulty"
	faulty.Fault = faults
	accels := []Config{OptimizedConfig(), BaselineConfig(), sliced, faulty}

	cluster := DefaultClusterConfig()
	cluster.Chips = 2

	gion := graphicionado.DefaultConfig()
	gionFaulty := gion
	gionFaulty.Fault = fault.Config{Seed: 11, DRAMFaultRate: 1e-2}

	var b strings.Builder
	for _, mk := range algs {
		for _, cfg := range accels {
			alg := mk()
			a, err := New(cfg, g, alg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, alg.Name(), err)
			}
			writeExactResult(&b, cfg.Name+"/"+alg.Name(), res)
		}

		alg := mk()
		cl, err := NewCluster(cluster, g, alg)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := cl.Run()
		if err != nil {
			t.Fatalf("cluster/%s: %v", alg.Name(), err)
		}
		key := "cluster2/" + alg.Name()
		fmt.Fprintf(&b, "%s cycles=%d inter_chip=%d processed=%d offchip=%d values=%016x\n",
			key, cres.Cycles, cres.InterChipEvents, cres.EventsProcessed, cres.OffChipAccesses, valuesHash(cres.Values))
		for i, r := range cres.PerChip {
			r.Values = nil // the shared state array is hashed once above
			writeExactResult(&b, fmt.Sprintf("%s/chip%d", key, i), r)
		}

		for _, gc := range []struct {
			name string
			cfg  graphicionado.Config
		}{{"graphicionado", gion}, {"graphicionado-faulty", gionFaulty}} {
			alg := mk()
			gr, err := graphicionado.Run(gc.cfg, g, alg)
			if err != nil {
				t.Fatalf("%s/%s: %v", gc.name, alg.Name(), err)
			}
			fmt.Fprintf(&b, "%s/%s cycles=%d iterations=%d edges=%d reads=%d writes=%d bytes=%d useful=%d util=%v values=%016x\n",
				gc.name, alg.Name(), gr.Cycles, gr.Iterations, gr.EdgesTraversed, gr.MemReads, gr.MemWrites,
				gr.BytesMoved, gr.BytesUseful, gr.Utilization, valuesHash(gr.Values))
		}
	}

	path := filepath.Join("testdata", "exact_stats.golden")
	if *updateExact {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("simulated statistics moved; first difference at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("simulated statistics moved: %d lines, want %d", len(gl), len(wl))
	}
}

// writeExactResult renders every simulated counter of r, one line per
// group, floats in shortest round-trip form and maps in key order.
func writeExactResult(b *strings.Builder, key string, r *Result) {
	fmt.Fprintf(b, "%s cycles=%d rounds=%d slices=%d switches=%d processed=%d emitted=%d coalesced=%d spilled=%d values=%016x\n",
		key, r.Cycles, r.Rounds, r.Slices, r.SliceSwitches, r.EventsProcessed, r.EventsEmitted,
		r.EventsCoalesced, r.SpilledEvents, valuesHash(r.Values))
	fmt.Fprintf(b, "%s mem reads=%d writes=%d bytes=%d useful=%d util=%v row_hits=%d row_misses=%d faults=%d retries=%d\n",
		key, r.MemReads, r.MemWrites, r.BytesMoved, r.BytesUseful, r.Utilization, r.RowHits, r.RowMisses,
		r.MemFaults, r.MemRetries)
	fmt.Fprintf(b, "%s robust dropped=%d redelivered=%d reordered=%d discarded=%d spill_recovered=%d global=%v injected=%s\n",
		key, r.DroppedEvents, r.RedeliveredEvents, r.ReorderedEvents, r.DiscardedEvents, r.SpillRecovered,
		r.TerminatedGlobally, sortedMap(r.FaultsInjected))
	fmt.Fprintf(b, "%s stages %s\n", key, sortedMap(r.StageMeans))
	fmt.Fprintf(b, "%s proc %s\n", key, sortedMap(r.ProcBreakdown))
	fmt.Fprintf(b, "%s gen %s\n", key, sortedMap(r.GenBreakdown))
	for _, rs := range r.RoundLog {
		fmt.Fprintf(b, "%s round %d slice=%d produced=%d coalesced=%d processed=%d remaining=%d progress=%v look=%v\n",
			key, rs.Round, rs.Slice, rs.Produced, rs.Coalesced, rs.Processed, rs.Remaining, rs.Progress, rs.Lookahead)
	}
}

func sortedMap[V int64 | float64](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, m[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// valuesHash is FNV-1a over the IEEE-754 bits of every vertex value.
func valuesHash(vs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
