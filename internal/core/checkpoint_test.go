package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// TestReadsParentCheckpoint: a checkpoint file written by the commit before
// the state-file codec moved into atomicio (literal bytes in testdata: SSSP
// from vertex 0 on a 6x5 grid, cycle 183 of 991) loads, resumes to the
// clean fixed point, and writes back byte-identically apart from the
// counters of the retired fault-recovery paths, which decode is free to
// ignore.
func TestReadsParentCheckpoint(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint_pr18.json")
	ck, err := ReadCheckpoint(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Grid2D(6, 5, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	clean := run(t, cfg, g, algorithms.NewSSSP(0))
	ra, err := NewFromCheckpoint(cfg, g, algorithms.NewSSSP(0), ck)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ra.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Values, clean.Values) {
		t.Fatal("resume from the parent-written checkpoint missed the fixed point")
	}
	out := filepath.Join(t.TempDir(), "ck.json")
	if err := WriteCheckpoint(out, ck); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(golden)
	for _, key := range []string{"SpillRecovered", "FoldRedelivered", "Dropped", "Duplicated", "Reordered"} {
		retired := []byte(`"` + key + `":0,`)
		if bytes.Count(want, retired) != 1 {
			t.Fatalf("testdata no longer holds %s", retired)
		}
		want = bytes.Replace(want, retired, nil, 1)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
		t.Error("rewritten checkpoint differs from the parent-written bytes minus the retired counters")
	}
	if _, err := ReadCheckpoint(filepath.Join(t.TempDir(), "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing checkpoint: err = %v, want os.ErrNotExist", err)
	}
}

// TestCheckpointResumeValueEquality is the checkpoint acceptance gate: a
// run interrupted at a round barrier and resumed from the snapshot must
// land on exactly the clean fixed point. SSSP's min-based reduce makes
// value equality exact even though the resumed schedule differs.
func TestCheckpointResumeValueEquality(t *testing.T) {
	g, err := gen.RMAT(*rmatTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	root := graph.BestRoot(g)
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(root) }
	clean := run(t, cfg, g, mk())

	var cks []*Checkpoint
	a, err := New(cfg, g, mk())
	if err != nil {
		t.Fatal(err)
	}
	full, err := a.RunWithOptions(RunOptions{
		CheckpointEvery: clean.Cycles / 8,
		OnCheckpoint:    func(c *Checkpoint) error { cks = append(cks, c); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatalf("no checkpoints taken in %d cycles (every %d)", full.Cycles, clean.Cycles/8)
	}
	if !reflect.DeepEqual(full.Values, clean.Values) {
		t.Fatal("taking checkpoints perturbed the run's fixed point")
	}
	for i, ck := range cks {
		if ck.Cycle == 0 || ck.Cycle >= full.Cycles {
			t.Fatalf("checkpoint %d at cycle %d outside run of %d cycles", i, ck.Cycle, full.Cycles)
		}
		ra, err := NewFromCheckpoint(cfg, g, mk(), ck)
		if err != nil {
			t.Fatalf("NewFromCheckpoint(#%d): %v", i, err)
		}
		res, err := ra.Run()
		if err != nil {
			t.Fatalf("resumed run #%d: %v", i, err)
		}
		if !reflect.DeepEqual(res.Values, clean.Values) {
			t.Fatalf("resume from checkpoint #%d (cycle %d) missed the fixed point", i, ck.Cycle)
		}
	}
}

// TestCheckpointRoundTripsJSON: a checkpoint serialized and reloaded must
// restore to the same resumable state (non-finite vertex values included —
// SSSP checkpoints are full of +Inf).
func TestCheckpointRoundTripsJSON(t *testing.T) {
	g, err := gen.RMAT(*rmatTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	mk := func() algorithms.Algorithm { return algorithms.NewSSSP(graph.BestRoot(g)) }
	var ck *Checkpoint
	a, err := New(cfg, g, mk())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := a.RunWithOptions(RunOptions{
		CheckpointEvery: 1_000,
		OnCheckpoint: func(c *Checkpoint) error {
			if ck == nil {
				ck = c
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Skip("run too short to checkpoint")
	}
	path := t.TempDir() + "/ck.json"
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, back) {
		t.Fatal("checkpoint changed across the JSON round trip")
	}
	ra, err := NewFromCheckpoint(cfg, g, mk(), back)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ra.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Values, clean.Values) {
		t.Fatal("resume from reloaded checkpoint missed the fixed point")
	}
}
