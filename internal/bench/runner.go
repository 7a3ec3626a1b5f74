package bench

// The job-based sweep runner. Every (workload × engine) measurement is a
// self-contained Job: an immutable *Workload in, one Cell fragment out.
// Every job — the three simulated engines and the Ligra baseline, whose
// time is modelled from its access counts — is deterministic and shares no
// mutable state, so all of them run on one bounded worker pool
// (Options.Parallel, default GOMAXPROCS).
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

// Run executes the job with panic recovery: a panicking engine is recorded
// as that cell's failure, never propagated.
func (j Job) Run(opt Options) {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		switch j.Engine {
		case "ligra":
			return runLigraJob(j.Cell)
		case "opt":
			return runOptJob(j.Cell, opt)
		case "base":
			return runBaseJob(j.Cell, opt)
		case "gion":
			return runGionJob(j.Cell, opt)
		}
		return fmt.Errorf("bench: unknown engine %q", j.Engine)
	}()
	if err == nil {
		return
	}
	switch j.Engine {
	case "ligra":
		j.Cell.LigraErr = err
	case "opt":
		j.Cell.OptErr = err
	case "base":
		j.Cell.BaseErr = err
	case "gion":
		j.Cell.GionErr = err
	}
}

// simConfig applies the per-cell overrides shared by both GraphPulse
// configurations: the cycle deadline (workload override wins over the
// sweep-wide one) and the slice-forcing queue capacity.
func simConfig(cfg core.Config, w *Workload, opt Options) core.Config {
	if opt.MaxCycles > 0 {
		cfg.MaxCycles = opt.MaxCycles
	}
	if w.MaxCycles > 0 {
		cfg.MaxCycles = w.MaxCycles
	}
	if w.sliceInto > 1 {
		cfg.QueueCapacity = (w.Graph.NumVertices() + w.sliceInto - 1) / w.sliceInto
	}
	return cfg
}

// runLigraJob measures the software baseline: the analytic 12-core-Xeon
// model of the run's access counts. The host clock plays no part.
func runLigraJob(c *Cell) error {
	w := c.Workload
	lig := ligra.New(ligra.DefaultConfig(), w.Graph).Run(w.NewAlgorithm())
	c.LigraModelSeconds = ligra.ModelSeconds(lig, ligra.PaperXeon())
	c.LigraIters = lig.Iterations
	return nil
}

func runOptJob(c *Cell, opt Options) error {
	w := c.Workload
	a, err := core.New(simConfig(core.OptimizedConfig(), w, opt), w.Graph, w.NewAlgorithm())
	if err != nil {
		return err
	}
	ctx, cancel := opt.jobContext()
	defer cancel()
	c.Opt, err = a.RunWithOptions(core.RunOptions{Ctx: ctx})
	return err
}

func runBaseJob(c *Cell, opt Options) error {
	w := c.Workload
	a, err := core.New(simConfig(core.BaselineConfig(), w, opt), w.Graph, w.NewAlgorithm())
	if err != nil {
		return err
	}
	ctx, cancel := opt.jobContext()
	defer cancel()
	c.Base, err = a.RunWithOptions(core.RunOptions{Ctx: ctx})
	return err
}

func runGionJob(c *Cell, opt Options) error {
	w := c.Workload
	cfg := graphicionado.DefaultConfig()
	if opt.MaxCycles > 0 {
		cfg.MaxCycles = opt.MaxCycles
	}
	if w.MaxCycles > 0 {
		cfg.MaxCycles = w.MaxCycles
	}
	ctx, cancel := opt.jobContext()
	defer cancel()
	var err error
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

// RunWorkload measures one workload on every engine, serially. It keeps
// the pre-runner contract: the first engine failure aborts with an error.
func RunWorkload(w *Workload, opt Options) (*Cell, error) {
	c := &Cell{Workload: w}
	for _, engine := range EngineNames {
		Job{Cell: c, Engine: engine}.Run(opt)
		if err := c.engineErr(engine); err != nil {
			return nil, fmt.Errorf("bench: %s/%s %s: %w", w.Dataset.Abbrev, w.AlgName, engine, err)
		}
	}
	return c, nil
}

// RunSweep measures every selected workload on every engine. Per-cell
// failures are recorded in the returned Sweep, not returned as an error;
// the error covers workload construction and manifest persistence.
func RunSweep(opt Options) (*Sweep, error) {
	ws, err := Workloads(opt)
	if err != nil {
		return nil, err
	}
	mw, err := newManifestWriter(ws, opt)
	if err != nil {
		return nil, err
	}
	sw := runSweep(ws, opt, mw)
	if mw != nil && mw.firstErr != nil {
		return nil, fmt.Errorf("bench: manifest %s: %w", mw.path, mw.firstErr)
	}
	return sw, nil
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
// worker pool. mw may be nil (no manifest persistence).
func runSweep(ws []*Workload, opt Options, mw *manifestWriter) *Sweep {
	cells := make([]*Cell, len(ws))
	for i, w := range ws {
		cells[i] = &Cell{Workload: w}
	}
	prog := newProgress(opt.Progress, len(cells)*len(EngineNames))

	// Each job writes a distinct field of its cell, so no further
	// synchronization is needed beyond the channel, the WaitGroup, and the
	// manifest's own mutex.
	jobs := make(chan Job)
	var wg sync.WaitGroup
	for i := 0; i < opt.workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				runJob(j, opt, mw, prog)
			}
		}()
	}
	for _, c := range cells {
		for _, engine := range EngineNames {
			jobs <- Job{Cell: c, Engine: engine}
		}
	}
	close(jobs)
	wg.Wait()

	return &Sweep{Cells: cells, Tier: opt.Tier}
}
