// Package lintdoc keeps the metric documentation in sync with the metrics
// the build actually emits. It runs tiny telemetry-enabled simulations of
// every engine (accelerator, cluster, Graphicionado baseline), collects
// each registered series name plus the DDR3 stats.Set counter names, the
// stage/state keys, and the serving- and distributed-tier metric
// catalogues, then applies two checks:
//
//   - forward, on METRICS.md: every collected name must be mentioned in
//     the doc in backticks;
//   - reverse, on METRICS.md and OPERATIONS.md: every backticked
//     metric-shaped token (`router_*`, `worker_*`, `query_*`, …) must
//     name a metric the build can actually emit — so neither the
//     catalogue nor the troubleshooting table can keep a renamed or
//     deleted counter.
//
// Both run as this package's tests, in CI and locally:
// `go test ./internal/sim/telemetry/lintdoc`.
package lintdoc

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/core"
	"graphpulse/internal/dserve"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/mem"
	"graphpulse/internal/serve"
	"graphpulse/internal/sim/telemetry"
)

// telCfg samples aggressively on the tiny lint graphs so every probe
// registers and records.
var telCfg = telemetry.Config{Interval: 8, MaxSamples: 64}

// emittedNames runs each engine once on a tiny graph and returns every
// metric name the build can emit, sorted and deduplicated.
func emittedNames() ([]string, error) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 8, EdgeFactor: 8,
		Weighted: true, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	add := func(names ...string) {
		for _, n := range names {
			seen[n] = true
		}
	}

	// Accelerator telemetry series.
	acfg := core.OptimizedConfig()
	acfg.Telemetry = telCfg
	a, err := core.New(acfg, g, algorithms.NewPageRankDelta())
	if err != nil {
		return nil, err
	}
	ares, err := a.Run()
	if err != nil {
		return nil, err
	}
	for _, s := range ares.Telemetry.Series() {
		add(s.Name)
	}

	// Cluster adds the interconnect series.
	ccfg := core.DefaultClusterConfig()
	ccfg.Chips = 2
	ccfg.Chip.Telemetry = telCfg
	cl, err := core.NewCluster(ccfg, g, algorithms.NewPageRankDelta())
	if err != nil {
		return nil, err
	}
	cres, err := cl.Run()
	if err != nil {
		return nil, err
	}
	for _, s := range cres.Telemetry.Series() {
		add(s.Name)
	}

	// Graphicionado adds the frontier series.
	gcfg := graphicionado.DefaultConfig()
	gcfg.Telemetry = telCfg
	gres, err := graphicionado.Run(gcfg, g, algorithms.NewPageRankDelta())
	if err != nil {
		return nil, err
	}
	for _, s := range gres.Telemetry.Series() {
		add(s.Name)
	}

	// DDR3 stats.Set counters and the latency histogram.
	add(mem.New(mem.DefaultConfig()).Stats().Names()...)

	// Serving-layer counters and latency histograms.
	add(serve.MetricNames()...)

	// Distributed serving tier: router and worker catalogues.
	add(dserve.RouterMetricNames()...)
	add(dserve.WorkerMetricNames()...)

	// Stage-timer and unit-state keys surfaced through core.Result.
	add(core.StageNames...)
	for k := range ares.ProcBreakdown {
		add(k)
	}
	for k := range ares.GenBreakdown {
		add(k)
	}

	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

var backtickRE = regexp.MustCompile("`([^`]+)`")

// cachedEmittedNames memoizes the (simulation-backed) name collection so
// linting several docs pays for it once.
var (
	namesOnce sync.Once
	namesVal  []string
	namesErr  error
)

func cachedEmittedNames() ([]string, error) {
	namesOnce.Do(func() { namesVal, namesErr = emittedNames() })
	return namesVal, namesErr
}

// check verifies every emitted metric name appears in the doc at docPath
// inside backticks. `dram_*`-style globs in the doc cover matching names.
func check(docPath string) error {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	documented := map[string]bool{}
	var globs []string
	for _, m := range backtickRE.FindAllStringSubmatch(string(raw), -1) {
		name := m[1]
		documented[name] = true
		if n := len(name); n > 1 && name[n-1] == '*' {
			globs = append(globs, name[:n-1])
		}
	}
	covered := func(name string) bool {
		if documented[name] {
			return true
		}
		for _, prefix := range globs {
			if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
				return true
			}
		}
		return false
	}

	names, err := cachedEmittedNames()
	if err != nil {
		return err
	}
	var missing []string
	for _, n := range names {
		if !covered(n) {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("lintdoc: %s is stale — undocumented metric names: %v", docPath, missing)
	}
	return nil
}

// metricTokenRE matches the backticked tokens the reverse check treats as
// metric references: the repository's metric-name families, optionally
// ending in a `*` glob.
var metricTokenRE = regexp.MustCompile(`^(router|worker|query|mutate|stream|compute|psolve|wal|antientropy|ooc)_[a-z0-9_]+\*?$`)

// checkOps is the reverse check (METRICS.md, OPERATIONS.md): every
// backticked token shaped like a metric name must be a metric the
// build can emit. A trailing `*` in the doc is a glob and is satisfied by
// any emitted name with that prefix.
func checkOps(docPath string) error {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	names, err := cachedEmittedNames()
	if err != nil {
		return err
	}
	emitted := make(map[string]bool, len(names))
	for _, n := range names {
		emitted[n] = true
	}
	prefixExists := func(prefix string) bool {
		for _, n := range names {
			if strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}

	var unknown []string
	seen := map[string]bool{}
	for _, m := range backtickRE.FindAllStringSubmatch(string(raw), -1) {
		tok := m[1]
		if !metricTokenRE.MatchString(tok) || seen[tok] {
			continue
		}
		seen[tok] = true
		if strings.HasSuffix(tok, "*") {
			if !prefixExists(strings.TrimSuffix(tok, "*")) {
				unknown = append(unknown, tok)
			}
		} else if !emitted[tok] {
			unknown = append(unknown, tok)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("lintdoc: %s references metrics the build does not emit: %v", docPath, unknown)
	}
	return nil
}
