// Package lintdoc keeps the metric documentation in sync with the metrics
// the build actually emits. It runs tiny telemetry-enabled simulations of
// every engine (accelerator, Graphicionado baseline), collects
// each registered series name plus the stage/state keys and the serving-
// and distributed-tier metric catalogues, reflects over the exported
// fields of the counter structs (mem.Counters, ooc.Counters), then applies
// three checks:
//
//   - forward, on METRICS.md: every collected name must be mentioned in
//     the doc in backticks;
//   - both ways, on METRICS.md's counter-struct tables: each table's first
//     column lists exactly its struct's exported fields, so a field
//     renamed, added or deleted without a doc edit fails;
//   - reverse, on every prose doc (Docs): every backticked
//     metric-shaped token (`router_*`, `worker_*`, `query_*`, …) must
//     name a metric the build can actually emit — so no doc can keep a
//     renamed or deleted counter.
//
// They run as this package's tests, in CI and locally:
// `go test ./internal/sim/telemetry/lintdoc`. So do the checks on the
// other names the prose docs (Docs) cite: every HTTP endpoint must be one
// the serving tier registers, every Test/Benchmark/Fuzz name must be
// defined, and every cross-doc link or section reference must name an
// existing file and heading. CheckFlags reads the docs' command lines,
// and TableFlags a doc's flag table, for the commands' own tests, which
// check every flag against the command's FlagSet.
package lintdoc

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/core"
	"graphpulse/internal/dserve"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
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

	// Serving-layer counters and latency histograms.
	add(serve.MetricNames()...)

	// Distributed serving tier: router and worker catalogues.
	add(dserve.RouterMetricNames()...)
	add(dserve.WorkerMetricNames()...)

	// Stage and unit-state keys surfaced through core.Result.
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

// fieldTables are the counter structs whose exported fields METRICS.md
// lists as the first column of one table, in the section whose "## "
// heading names the struct in backticks.
var fieldTables = []reflect.Type{
	reflect.TypeFor[mem.Counters](),
	reflect.TypeFor[ooc.Counters](),
}

// fieldRowRE matches a table row whose first cell is one backticked
// identifier.
var fieldRowRE = regexp.MustCompile("(?m)^\\|\\s*`([A-Za-z0-9_]+)`\\s*\\|")

// checkFieldTable verifies that the table in doc's "## " section whose
// heading names `pkg.Type` lists exactly t's exported fields.
func checkFieldTable(docPath, doc string, t reflect.Type) error {
	name := "`" + t.String() + "`"
	for _, sec := range strings.Split(doc, "\n## ")[1:] {
		heading, body, _ := strings.Cut(sec, "\n")
		if !strings.Contains(heading, name) {
			continue
		}
		rows := map[string]bool{}
		for _, m := range fieldRowRE.FindAllStringSubmatch(body, -1) {
			rows[m[1]] = true
		}
		var stale []string
		for _, f := range reflect.VisibleFields(t) {
			if f.IsExported() && !rows[f.Name] {
				stale = append(stale, f.Name+" (undocumented)")
			}
			delete(rows, f.Name)
		}
		for r := range rows {
			stale = append(stale, r+" (no such field)")
		}
		if len(stale) > 0 {
			sort.Strings(stale)
			return fmt.Errorf("lintdoc: %s's %s table is stale: %v", docPath, name, stale)
		}
		return nil
	}
	return fmt.Errorf("lintdoc: %s has no section headed by %s", docPath, name)
}

// check verifies every emitted metric name appears in the doc at docPath
// inside backticks, and that every counter-struct table lists exactly its
// struct's fields. `dram_*`-style globs in the doc cover matching names.
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
	for _, t := range fieldTables {
		if err := checkFieldTable(docPath, string(raw), t); err != nil {
			return err
		}
	}
	return nil
}

// metricTokenRE matches the backticked tokens the reverse check treats as
// metric references: the repository's metric-name families, optionally
// ending in a `*` glob.
var metricTokenRE = regexp.MustCompile(`^(router|worker|query|mutate|stream|compute|psolve|wal|antientropy|ooc)_[a-z0-9_]+\*?$`)

// checkOps is the reverse check (every doc in Docs): every
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
