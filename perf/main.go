// Command perf is the repository's benchmark: six named workloads, five
// end-to-end metrics measured with tracing off, and a separate traced run
// that attributes cost to layers by timing calls into their exported
// functions from outside. README.md beside this file says why each
// workload exists and which layer metric should move which end-to-end one.
//
// The acceptance driver runs one workload per process:
//
//	perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. For people:
//
//	perf -seed 1 -out results/seed1.json [-trace-out trace.json]   every workload, both runs
//	perf -agree a.json b.json                                      compare two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Set-up runs at least minSetups times, and cheap set-ups up to maxSetups
// times within setupBudget, so that setup_s is a median and not one draw.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// harness is what a workload's set-up receives.
type harness struct {
	seed  int64
	nproc int
	tmp   string // one temp root for WAL, snapshot and graphpack files
	smoke bool   // the test's sizing: one set-up, traced passes an eighth as long
}

// count sizes a traced pass: full normally, an eighth under smoke.
func (h *harness) count(full int) int {
	if h.smoke {
		return max(full/8, 1)
	}
	return full
}

// checks counts the operations a run attempted and the ones that failed,
// were refused, answered wrongly, or ran over their latency limit in a
// phase that missed it (gate).
type checks struct {
	attempted, failed int
	problems          []string
}

func (c *checks) add(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

// fail records one failed operation with its reason (the first few are
// printed).
func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// measured is the untraced window of one workload.
type measured struct {
	usage                  // CPU time and bytes allocated by the process during the window
	ops            int     // operations the window completed, of every kind
	p50, p50Sprd   float64 // primary operation latency, ms
	p50b, p50bSprd float64 // secondary operation latency, ms
	samples        int     // samples behind the smaller of the two latencies
}

// usage is what the whole process — load generator, servers, garbage
// collector — consumed over an interval.
type usage struct {
	cpu   time.Duration // user + system
	alloc uint64        // runtime.MemStats.TotalAlloc
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: m.TotalAlloc}
}

// since returns the usage between an earlier reading and now. Workloads
// read it around the load alone, so the reference solves of the correctness
// gate are not charged to the system.
func (u usage) since() usage {
	now := readUsage()
	return usage{cpu: now.cpu - u.cpu, alloc: now.alloc - u.alloc}
}

// env is one workload, set up.
type env interface {
	measure(seconds float64, c *checks) (measured, error)
	trace(rec *recorder, c *checks) (layers, error)
	close() error
}

type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// outcome is one run of one workload.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]value
	Problems  []string
	rec       *recorder
}

// runWorkload sets the workload up, runs the untraced window or the traced
// pass, tears it down and checks that nothing it started is left running.
func runWorkload(w workloadDef, seed int64, seconds float64, traced, smoke bool) (*outcome, error) {
	tmp, err := os.MkdirTemp("", "perf-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	goroutines := runtime.NumGoroutine()
	var atStart runtime.MemStats
	runtime.ReadMemStats(&atStart)

	h := &harness{seed: seed, nproc: runtime.NumCPU(), tmp: tmp, smoke: smoke}
	var e env
	var setups []float64
	for begin := time.Now(); len(setups) == 0 || (!traced && !smoke && len(setups) < maxSetups &&
		(len(setups) < minSetups || time.Since(begin) < setupBudget)); {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.Name, err)
			}
		}
		h.tmp, err = os.MkdirTemp(tmp, "setup")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if e, err = w.setup(h); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	out := &outcome{Metrics: map[string]value{}}
	c := &checks{}
	if traced {
		out.rec = newRecorder()
		l, err := e.trace(out.rec, c)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("%s: traced pass: %w", w.Name, err), e.close())
		}
		probeRuntime(l, atStart.PauseTotalNs)
		for _, d := range layerDefs {
			out.Metrics[d.Name] = value{Value: l[d.Name], Unit: d.Unit}
		}
	} else {
		m, err := e.measure(seconds, c)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("%s: measured window: %w", w.Name, err), e.close())
		}
		if m.ops == 0 {
			return nil, errors.Join(fmt.Errorf("%s: no operation completed in %gs", w.Name, seconds), e.close())
		}
		for _, d := range endToEndDefs {
			v := value{Unit: d.Unit, Samples: m.samples}
			switch d.Name {
			case "ops_per_cpu_s":
				v.Value, v.Samples = float64(m.ops)/m.cpu.Seconds(), m.ops
			case "op_p50_ms":
				v.Value, v.Spread = m.p50, m.p50Sprd
			case "op2_p50_ms":
				v.Value, v.Spread = m.p50b, m.p50bSprd
			case "alloc_mb_per_op":
				v.Value, v.Samples = float64(m.alloc)/(1<<20)/float64(m.ops), m.ops
			case "setup_s":
				v.Value, v.Spread, v.Samples = median(setups), spread(setups), len(setups)
			}
			out.Metrics[d.Name] = v
		}
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.Name, err)
	}
	if left := leftRunning(goroutines); left > 0 {
		c.fail("%d goroutines started by the workload are still alive after shutdown", left)
	}
	out.Attempted, out.Failed, out.Problems = c.attempted, c.failed, c.problems
	out.Correct = c.failed == 0
	return out, nil
}

// leftRunning waits briefly for goroutines to wind down after shutdown
// (closed connections unwind asynchronously) and reports how many more are
// alive than before the workload started.
func leftRunning(before int) int {
	deadline := time.Now().Add(10 * time.Second)
	for {
		left := runtime.NumGoroutine() - before
		if left <= 0 || time.Now().After(deadline) {
			return max(left, 0)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// resultFile is what -out writes: every workload, both runs.
type resultFile struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	FrozenRate float64 `json:"frozen_rate_rps"`
	// LimitsMS are the latency limits: cached, cold, and warm (mutate ack
	// and warm re-query).
	LimitsMS map[string]float64 `json:"latency_limits_ms"`
	// The untraced run and the traced run are timed apart: the issue's caps
	// (whole run about two minutes, a workload under 30 s) are on the first.
	WallS       float64                    `json:"wall_s"`
	TracedWallS float64                    `json:"traced_wall_s"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	FailedShare float64          `json:"failed_share"`
	WallS       float64          `json:"wall_s"`
	TracedWallS float64          `json:"traced_wall_s"`
	EndToEnd    map[string]value `json:"end_to_end"`
	PerLayer    map[string]value `json:"per_layer"`
	Problems    []string         `json:"problems,omitempty"`
}

// runAll runs every workload untraced then traced and prints every metric
// by name with its unit.
func runAll(seed int64, seconds float64, smoke bool, outPath, tracePath string) (*resultFile, error) {
	file := &resultFile{
		Seed: seed, Seconds: seconds, Commit: commit(), Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), FrozenRate: frozenRate,
		LimitsMS:  map[string]float64{"cached": ms(limitCached), "cold": ms(limitCold), "warm": ms(limitWarm)},
		Workloads: map[string]*workloadResult{},
	}
	all := newRecorder()
	nextOp := 0 // operation ids of the merged span file continue across workloads
	ok := true
	for _, w := range workloadDefs {
		start := time.Now()
		plain, err := runWorkload(w, seed, seconds, false, smoke)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		start = time.Now()
		traced, err := runWorkload(w, seed, seconds, true, smoke)
		if err != nil {
			return nil, err
		}
		r := &workloadResult{
			Correct:   plain.Correct && traced.Correct,
			Attempted: plain.Attempted + traced.Attempted,
			Failed:    plain.Failed + traced.Failed,
			WallS:     wall, TracedWallS: time.Since(start).Seconds(),
			EndToEnd: plain.Metrics, PerLayer: traced.Metrics,
			Problems: append(plain.Problems, traced.Problems...),
		}
		r.FailedShare = float64(r.Failed) / float64(max(r.Attempted, 1))
		file.Workloads[w.Name] = r
		file.WallS += r.WallS
		file.TracedWallS += r.TracedWallS
		ok = ok && r.Correct
		// One span file for the whole run: offset ids so they stay unique.
		base, opBase := len(all.spans), nextOp
		for _, s := range traced.rec.spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			s.Op += opBase
			nextOp = max(nextOp, s.Op+1)
			s.Name = w.Name + "/" + s.Name
			all.spans = append(all.spans, s)
		}
		printWorkload(w.Name, r)
	}
	if outPath != "" {
		buf, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if tracePath != "" {
		if err := all.writeChromeTrace(tracePath); err != nil {
			return nil, err
		}
	}
	fmt.Printf("untraced run %.1fs, traced run %.1fs on %d CPUs (GOMAXPROCS %d, %s, commit %s, seed %d)\n",
		file.WallS, file.TracedWallS, file.NumCPU, file.GOMAXPROCS, file.Go, file.Commit, seed)
	if !ok {
		return file, errors.New("a workload failed its correctness gate (failed_share > 0)")
	}
	return file, nil
}

func printWorkload(name string, r *workloadResult) {
	fmt.Printf("== %s: attempted %d failed %d failed_share %g (%.1fs untraced, %.1fs traced)\n", name, r.Attempted, r.Failed, r.FailedShare, r.WallS, r.TracedWallS)
	for _, p := range r.Problems {
		fmt.Printf("   problem: %s\n", p)
	}
	for _, d := range endToEndDefs {
		v := r.EndToEnd[d.Name]
		fmt.Printf("  %-36s %14.6g %-10s spread %.3f samples %d\n", d.Name, v.Value, v.Unit, v.Spread, v.Samples)
	}
	for _, d := range layerDefs {
		if v := r.PerLayer[d.Name]; v.Value != 0 {
			fmt.Printf("  %-36s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// commit names the checked-out commit when git can tell; the driver's
// checkout is not a repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print the driver's result line")
		seed      = flag.Int64("seed", 1, "workload seed: graph, roots, request order and mutation edges all derive from it")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured window")
		traced    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced pass")
		outPath   = flag.String("out", "", "run every workload and write the result file here")
		tracePath = flag.String("trace-out", "", "with -out or -workload -trace 1: write the spans as Chrome trace JSON (opens in Perfetto)")
		agree     = flag.Bool("agree", false, "compare two result files against the bounds: -agree a.json b.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *outPath, *tracePath, *agree, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, outPath, tracePath string, agree bool, args []string) error {
	switch {
	case agree:
		if len(args) != 2 {
			return errors.New("-agree needs two result files")
		}
		return agreeFiles(args[0], args[1])
	case name == "":
		_, err := runAll(seed, seconds, false, outPath, tracePath)
		return err
	}
	w, ok := workloadByName(name)
	if !ok {
		var names []string
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	out, err := runWorkload(w, seed, seconds, traced == 1, false)
	if err != nil {
		return err
	}
	if tracePath != "" && out.rec != nil {
		if err := out.rec.writeChromeTrace(tracePath); err != nil {
			return err
		}
	}
	for _, p := range out.Problems {
		fmt.Fprintln(os.Stderr, "perf: problem:", p)
	}
	// The driver's line: exactly these four keys, value and unit per metric.
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]metric{}}
	for name, v := range out.Metrics {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}
