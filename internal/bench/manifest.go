package bench

// The run manifest makes long sweeps resumable. With Options.Manifest set,
// the runner records every completed (workload × engine) job — its
// measurement fragment or its structured failure — and atomically rewrites
// the manifest JSON after each job, so a sweep killed mid-run (OOM, node
// preemption, ^C) loses at most the jobs that were in flight. Re-running
// with Options.Resume restores the recorded jobs instead of re-measuring
// them; because every job is deterministic, the assembled Sweep — and the
// CSV and tables rendered from it — is byte-identical to an uninterrupted
// run.
//
// Two deliberate scope limits:
//
//   - Bulky per-vertex payloads (Result.Values, RoundLog, Telemetry)
//     are not persisted: no sweep renderer consumes them, some contain ±Inf
//     (which JSON cannot represent), and rewriting them after every job
//     would make the manifest O(vertices) instead of O(cells). Resumed
//     cells carry nil for these fields.
//   - Recorded failures are restored as failures (errors.New of the
//     original message, so errors.Is identity is lost). This keeps the
//     resumed output identical to what the interrupted run would have
//     produced; delete the manifest to re-measure failed cells.

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"graphpulse/internal/atomicio"
	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/core"
)

// ManifestVersion identifies the on-disk manifest format.
const ManifestVersion = 1

// Manifest is the persisted state of one sweep run.
type Manifest struct {
	Version int
	// Signature fields: a resumed run must request the same sweep.
	Tier       string
	Datasets   []string // cell keys in canonical workload order
	Algorithms []string
	MaxCycles  uint64
	TimeoutNS  int64

	// Cells maps "ABBREV/alg" to the recorded per-engine outcomes.
	Cells map[string]*ManifestCell
}

// ManifestCell records one workload's completed engine jobs.
type ManifestCell struct {
	// Done marks engines whose job ran to completion (successfully or with
	// a recorded failure).
	Done map[string]bool
	// Errs holds the failure message per failed engine.
	Errs map[string]string `json:",omitempty"`

	LigraModelSeconds float64 `json:",omitempty"`
	LigraIters        int     `json:",omitempty"`

	Opt  *core.Result          `json:",omitempty"`
	Base *core.Result          `json:",omitempty"`
	Gion *graphicionado.Result `json:",omitempty"`
}

// cellKey addresses a workload inside the manifest.
func cellKey(w *Workload) string { return w.Dataset.Abbrev + "/" + w.AlgName }

// stripResult drops the non-persisted payloads from a copy of r (see the
// package comment above for why).
func stripResult(r *core.Result) *core.Result {
	if r == nil {
		return nil
	}
	c := *r
	c.Values, c.RoundLog, c.Telemetry = nil, nil, nil
	return &c
}

func stripGionResult(r *graphicionado.Result) *graphicionado.Result {
	if r == nil {
		return nil
	}
	c := *r
	c.Values, c.Telemetry = nil, nil
	return &c
}

// manifestSignature derives the signature of the requested sweep.
func manifestSignature(ws []*Workload, opt Options) *Manifest {
	m := &Manifest{
		Version:   ManifestVersion,
		Tier:      opt.Tier.String(),
		MaxCycles: opt.MaxCycles,
		TimeoutNS: int64(opt.Timeout),
		Cells:     map[string]*ManifestCell{},
	}
	seenDS := map[string]bool{}
	seenAlg := map[string]bool{}
	for _, w := range ws {
		if !seenDS[w.Dataset.Abbrev] {
			seenDS[w.Dataset.Abbrev] = true
			m.Datasets = append(m.Datasets, w.Dataset.Abbrev)
		}
		if !seenAlg[w.AlgName] {
			seenAlg[w.AlgName] = true
			m.Algorithms = append(m.Algorithms, w.AlgName)
		}
	}
	return m
}

// manifestWriter serializes manifest updates from concurrent jobs. A nil
// writer is a no-op on every method, so the runner needs no branching.
type manifestWriter struct {
	mu   sync.Mutex
	path string
	m    *Manifest
	// firstErr records the first failed manifest rewrite; the sweep keeps
	// running (results stay valid) and RunSweep surfaces it at the end.
	firstErr error
}

// newManifestWriter prepares manifest persistence for the sweep. With
// Resume set it loads the existing manifest and validates its signature;
// a missing manifest file under Resume starts fresh (nothing to restore).
func newManifestWriter(ws []*Workload, opt Options) (*manifestWriter, error) {
	if opt.Manifest == "" {
		if opt.Resume {
			return nil, errors.New("bench: -resume requires a manifest path")
		}
		return nil, nil
	}
	want := manifestSignature(ws, opt)
	mw := &manifestWriter{path: opt.Manifest, m: want}
	if !opt.Resume {
		return mw, mw.flushLocked()
	}
	have, err := ReadManifest(opt.Manifest)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return mw, mw.flushLocked()
	case err != nil:
		return nil, err
	}
	if err := have.checkSignature(want); err != nil {
		return nil, fmt.Errorf("bench: manifest %s does not match this sweep: %w (delete it to start over)",
			opt.Manifest, err)
	}
	mw.m = have
	return mw, nil
}

// checkSignature verifies the manifest was produced by an identical sweep
// configuration.
func (m *Manifest) checkSignature(want *Manifest) error {
	switch {
	case m.Version != want.Version:
		return fmt.Errorf("manifest version %d, want %d", m.Version, want.Version)
	case m.Tier != want.Tier:
		return fmt.Errorf("tier %q, want %q", m.Tier, want.Tier)
	case m.MaxCycles != want.MaxCycles:
		return fmt.Errorf("max-cycles %d, want %d", m.MaxCycles, want.MaxCycles)
	case m.TimeoutNS != want.TimeoutNS:
		return fmt.Errorf("timeout %s, want %s", time.Duration(m.TimeoutNS), time.Duration(want.TimeoutNS))
	case !reflect.DeepEqual(m.Datasets, want.Datasets):
		return fmt.Errorf("datasets %v, want %v", m.Datasets, want.Datasets)
	case !reflect.DeepEqual(m.Algorithms, want.Algorithms):
		return fmt.Errorf("algorithms %v, want %v", m.Algorithms, want.Algorithms)
	}
	if m.Cells == nil {
		m.Cells = map[string]*ManifestCell{}
	}
	return nil
}

// done reports whether the (workload, engine) job is already recorded.
func (mw *manifestWriter) done(w *Workload, engine string) bool {
	if mw == nil {
		return false
	}
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mc := mw.m.Cells[cellKey(w)]
	return mc != nil && mc.Done[engine]
}

// restore copies a recorded job's outcome into the cell. Returns false when
// the job is not recorded (caller must run it).
func (mw *manifestWriter) restore(c *Cell, engine string) bool {
	if mw == nil {
		return false
	}
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mc := mw.m.Cells[cellKey(c.Workload)]
	if mc == nil || !mc.Done[engine] {
		return false
	}
	var restoredErr error
	if msg, ok := mc.Errs[engine]; ok {
		restoredErr = errors.New(msg)
	}
	switch engine {
	case "ligra":
		c.LigraModelSeconds = mc.LigraModelSeconds
		c.LigraIters = mc.LigraIters
		c.LigraErr = restoredErr
	case "opt":
		c.Opt, c.OptErr = mc.Opt, restoredErr
	case "base":
		c.Base, c.BaseErr = mc.Base, restoredErr
	case "gion":
		c.Gion, c.GionErr = mc.Gion, restoredErr
	}
	return true
}

// record persists a freshly completed job's outcome and rewrites the
// manifest atomically.
func (mw *manifestWriter) record(c *Cell, engine string) error {
	if mw == nil {
		return nil
	}
	mw.mu.Lock()
	defer mw.mu.Unlock()
	key := cellKey(c.Workload)
	mc := mw.m.Cells[key]
	if mc == nil {
		mc = &ManifestCell{Done: map[string]bool{}}
		mw.m.Cells[key] = mc
	}
	mc.Done[engine] = true
	if err := c.engineErr(engine); err != nil {
		if mc.Errs == nil {
			mc.Errs = map[string]string{}
		}
		mc.Errs[engine] = err.Error()
	}
	switch engine {
	case "ligra":
		mc.LigraModelSeconds = c.LigraModelSeconds
		mc.LigraIters = c.LigraIters
	case "opt":
		mc.Opt = stripResult(c.Opt)
	case "base":
		mc.Base = stripResult(c.Base)
	case "gion":
		mc.Gion = stripGionResult(c.Gion)
	}
	return mw.flushLocked()
}

// flushLocked rewrites the manifest (temp file + rename; caller holds mu or
// has exclusive access).
func (mw *manifestWriter) flushLocked() error {
	return atomicio.WriteJSON(mw.path, mw.m, " ")
}

// ReadManifest loads a sweep manifest written by a previous run.
func ReadManifest(path string) (*Manifest, error) {
	m := &Manifest{}
	if err := atomicio.ReadJSON(path, m); err != nil {
		return nil, fmt.Errorf("bench: manifest: %w", err)
	}
	return m, nil
}
