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
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim/telemetry"
)

var updateExact = flag.Bool("update", false, "rewrite testdata/exact_stats.golden from the current simulator")

// TestExactStatsGolden pins every simulated statistic of both cycle models
// to a file written by an earlier build. The determinism tests compare a
// build with itself; this one compares it with its history, so a hot-path
// rewrite that moves one cycle, one row hit or one RNG draw fails here.
//
// The configurations cover each completion path of the models: the
// prefetching optimized design, the baseline's direct reads and
// in-processor generation, a sliced queue (spill and swap-in), and
// Graphicionado. Three more reach each retry path of the optimized design:
// an edge cache too small for every stream's prefetch window (edge lines
// refused), a tiny scratchpad and input buffer (dispatch refused), and a
// delivery network no deeper than its ports (emits refused). One run with
// telemetry on pins a hash of every sampled series, so a probe that reads a
// counter mid-run is pinned too. Regenerate with -update only for an
// intended model change.
func TestExactStatsGolden(t *testing.T) {
	g, err := gen.RMAT(*rmatTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	root := graph.BestRoot(g)
	algs := []func() algorithms.Algorithm{
		func() algorithms.Algorithm { return algorithms.NewPageRankDelta() },
		func() algorithms.Algorithm { return algorithms.NewSSSP(root) },
	}

	sliced := OptimizedConfig()
	sliced.Name = "sliced"
	sliced.QueueCapacity = g.NumVertices() / 4
	edgeTight := OptimizedConfig()
	edgeTight.Name = "edge-cache-tight"
	edgeTight.EdgeCacheLines = edgeTight.StreamsPerProcessor + 1
	dispatchTight := OptimizedConfig()
	dispatchTight.Name = "dispatch-tight"
	dispatchTight.ScratchpadLines = 2
	dispatchTight.InputBufferDepth = 4
	netTight := OptimizedConfig()
	netTight.Name = "network-tight"
	netTight.NetworkQueueDepth = netTight.CrossbarPorts
	telCfg := OptimizedConfig()
	telCfg.Name = "telemetry"
	telCfg.Telemetry = telemetry.Config{Interval: 64, MaxSamples: 256}
	accels := []Config{OptimizedConfig(), BaselineConfig(), sliced, edgeTight, dispatchTight, netTight, telCfg}

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
			key := cfg.Name + "/" + alg.Name()
			writeExactResult(&b, key, res)
			for _, s := range res.Telemetry.Series() {
				fmt.Fprintf(&b, "%s series %s/%s samples=%d hash=%016x\n",
					key, s.Component, s.Name, len(s.Samples), seriesHash(s.Samples))
			}
		}

		alg := mk()
		gr, err := graphicionado.Run(graphicionado.DefaultConfig(), g, alg)
		if err != nil {
			t.Fatalf("graphicionado/%s: %v", alg.Name(), err)
		}
		fmt.Fprintf(&b, "graphicionado/%s cycles=%d iterations=%d edges=%d reads=%d writes=%d bytes=%d useful=%d util=%v values=%016x\n",
			alg.Name(), gr.Cycles, gr.Iterations, gr.EdgesTraversed, gr.MemReads, gr.MemWrites,
			gr.BytesMoved, gr.BytesUseful, gr.Utilization, valuesHash(gr.Values))
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
	fmt.Fprintf(b, "%s mem reads=%d writes=%d bytes=%d useful=%d util=%v row_hits=%d row_misses=%d\n",
		key, r.MemReads, r.MemWrites, r.BytesMoved, r.BytesUseful, r.Utilization, r.RowHits, r.RowMisses)
	fmt.Fprintf(b, "%s robust discarded=%d global=%v\n", key, r.DiscardedEvents, r.TerminatedGlobally)
	fmt.Fprintf(b, "%s stages %s\n", key, sortedMap(r.StageMeans))
	fmt.Fprintf(b, "%s proc %s\n", key, sortedMap(r.ProcBreakdown))
	fmt.Fprintf(b, "%s gen %s\n", key, sortedMap(r.GenBreakdown))
	for _, rs := range r.RoundLog {
		fmt.Fprintf(b, "%s round %d slice=%d produced=%d coalesced=%d processed=%d remaining=%d progress=%v look=%v\n",
			key, rs.Round, rs.Slice, rs.Produced, rs.Coalesced, rs.Processed, rs.Remaining, rs.Progress, rs.Lookahead)
	}
}

func sortedMap(m map[string]float64) string {
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

// seriesHash is FNV-1a over the cycle stamp and value of every sample.
func seriesHash(samples []telemetry.Sample) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range samples {
		for i := 0; i < 8; i++ {
			buf[i] = byte(p.Cycle >> (8 * i))
			buf[8+i] = byte(uint64(p.Value) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
