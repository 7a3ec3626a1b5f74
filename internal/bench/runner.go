package bench

// The job-based sweep runner. Every (workload × engine) measurement is a
// self-contained Job: an immutable *Workload in, one Cell fragment out.
// Every job — the three simulated engines and the Ligra baseline, whose
// time is modelled from its access counts — is deterministic and shares no
// mutable state, so all of them run on one bounded worker pool
// (Options.Parallel, default GOMAXPROCS). The slicing and ablation
// experiments run their variants on the same pool.
//
// Cells are allocated up front in canonical workload order and each job
// writes only its own fragment (distinct struct fields), so the assembled
// Sweep — and everything rendered from it — is byte-identical to a serial
// run regardless of worker count or completion order. Failures (including
// sim.ErrDeadline and recovered panics) are recorded per cell instead of
// aborting the sweep.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/core"
)

// Job is one (workload × engine) measurement. Running it fills the
// engine's fragment of Cell (or its error field) and touches nothing else.
type Job struct {
	Cell *Cell
	// Engine is one of EngineNames.
	Engine string
}

// Run executes the job. A failing or panicking engine is recorded as that
// cell's failure, never propagated.
func (j Job) Run(opt Options) {
	c := j.Cell
	switch j.Engine {
	case "ligra":
		c.LigraErr = runLigraJob(c)
	case "opt":
		c.Opt, c.OptErr = runSim(core.OptimizedConfig(), c.Workload, opt)
	case "base":
		c.Base, c.BaseErr = runSim(core.BaselineConfig(), c.Workload, opt)
	case "gion":
		c.GionErr = runGionJob(c, opt)
	}
}

// recoverInto turns a panic in the deferring run into its error.
func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// maxCycles resolves the cycle deadline of a run on w: the workload's own
// override, else the sweep-wide one, else the engine's default.
func (w *Workload) maxCycles(opt Options, def uint64) uint64 {
	switch {
	case w.MaxCycles > 0:
		return w.MaxCycles
	case opt.MaxCycles > 0:
		return opt.MaxCycles
	}
	return def
}

// runSim builds and runs one simulated GraphPulse configuration on w; every
// experiment's simulation goes through it. It applies the cycle deadline,
// the slice-forcing queue capacity of a w marked for sliced execution and
// the per-run Options.Timeout, and returns a panic as the run's error.
func runSim(cfg core.Config, w *Workload, opt Options) (res *core.Result, err error) {
	defer recoverInto(&err)
	cfg.MaxCycles = w.maxCycles(opt, cfg.MaxCycles)
	if w.sliceInto > 1 {
		cfg.QueueCapacity = (w.Graph.NumVertices() + w.sliceInto - 1) / w.sliceInto
	}
	a, err := core.New(cfg, w.Graph, w.NewAlgorithm())
	if err != nil {
		return nil, err
	}
	ctx, cancel := opt.jobContext()
	defer cancel()
	return a.RunCtx(ctx)
}

// runLigraJob measures the software baseline: the analytic 12-core-Xeon
// model of the run's access counts. The host clock plays no part.
func runLigraJob(c *Cell) (err error) {
	defer recoverInto(&err)
	w := c.Workload
	lig := ligra.New(ligra.DefaultConfig(), w.Graph).Run(w.NewAlgorithm())
	c.LigraModelSeconds = ligra.ModelSeconds(lig, ligra.PaperXeon())
	c.LigraIters = lig.Iterations
	return nil
}

// runGionJob runs the Graphicionado model under the same deadline and
// timeout rules as runSim.
func runGionJob(c *Cell, opt Options) (err error) {
	defer recoverInto(&err)
	w := c.Workload
	cfg := graphicionado.DefaultConfig()
	cfg.MaxCycles = w.maxCycles(opt, cfg.MaxCycles)
	ctx, cancel := opt.jobContext()
	defer cancel()
	c.Gion, err = graphicionado.RunCtx(ctx, cfg, w.Graph, w.NewAlgorithm())
	return err
}

// progress serializes per-job completion lines onto Options.Progress.
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	count int
	total int
}

func newProgress(w io.Writer, total int) *progress {
	if w == nil {
		return nil
	}
	return &progress{w: w, total: total}
}

func (p *progress) report(c *Cell, engine string, elapsed time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	status := "ok"
	if err := c.engineErr(engine); err != nil {
		status = "FAILED: " + err.Error()
	}
	fmt.Fprintf(p.w, "[%d/%d] %s/%s %s %s (%s)\n",
		p.count, p.total, c.Workload.Dataset.Abbrev, c.Workload.AlgName,
		engine, elapsed.Round(time.Millisecond), status)
}

// RunSweep measures every selected workload on every engine. Per-cell
// failures are recorded in the returned Sweep, not returned as an error;
// the error covers workload construction and manifest persistence.
func RunSweep(opt Options) (*Sweep, error) {
	ws, err := Workloads(opt)
	if err != nil {
		return nil, err
	}
	return runSweep(ws, opt)
}

// runJob executes (or, under -resume, restores) one job, recording the
// outcome in the manifest.
func runJob(j Job, opt Options, mw *manifestWriter, prog *progress) {
	start := time.Now()
	if mw.restore(j.Cell, j.Engine) {
		prog.report(j.Cell, j.Engine, 0)
		return
	}
	j.Run(opt)
	if err := mw.record(j.Cell, j.Engine); err != nil {
		mw.mu.Lock()
		if mw.firstErr == nil {
			mw.firstErr = err
		}
		mw.mu.Unlock()
	}
	prog.report(j.Cell, j.Engine, time.Since(start))
}

// runSweep executes every job of the prepared workloads on the bounded
// worker pool, recording each in the manifest when opt names one.
func runSweep(ws []*Workload, opt Options) (*Sweep, error) {
	mw, err := newManifestWriter(ws, opt)
	if err != nil {
		return nil, err
	}
	cells := make([]*Cell, len(ws))
	var jobs []Job
	for i, w := range ws {
		cells[i] = &Cell{Workload: w}
		for _, engine := range EngineNames {
			jobs = append(jobs, Job{Cell: cells[i], Engine: engine})
		}
	}
	prog := newProgress(opt.Progress, len(jobs))
	// Each job writes a distinct field of its cell, so the manifest's own
	// mutex is the only synchronization needed beyond the pool's.
	runPool(opt, len(jobs), func(i int) { runJob(jobs[i], opt, mw, prog) })
	if mw != nil && mw.firstErr != nil {
		return nil, fmt.Errorf("bench: manifest %s: %w", mw.path, mw.firstErr)
	}
	return &Sweep{Cells: cells, Tier: opt.Tier}, nil
}

// runPool calls job(0) … job(n-1) on opt.workers() goroutines, handing the
// indices out in order, and returns when every call has. A job reports its
// outcome through the slot its index names, so results are collected in a
// fixed order whatever the completion order.
func runPool(opt Options, n int, job func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < opt.workers(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
