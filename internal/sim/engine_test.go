package sim

import (
	"context"
	"errors"
	"testing"
)

type tickCounter struct {
	name   string
	ticks  int
	cycles []uint64
}

func (t *tickCounter) Name() string { return t.name }
func (t *tickCounter) Tick(cycle uint64) {
	t.ticks++
	t.cycles = append(t.cycles, cycle)
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	a := &tickCounter{name: "a"}
	b := &tickCounter{name: "b"}
	e.Register(a)
	e.Register(b)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if e.Cycle() != 5 {
		t.Errorf("Cycle = %d, want 5", e.Cycle())
	}
	if a.ticks != 5 || b.ticks != 5 {
		t.Errorf("ticks = %d/%d, want 5/5", a.ticks, b.ticks)
	}
	for i, c := range a.cycles {
		if c != uint64(i) {
			t.Errorf("tick %d saw cycle %d", i, c)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	c := &tickCounter{name: "c"}
	e.Register(c)
	err := e.RunUntil(nil, func() bool { return c.ticks >= 10 }, 100)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if c.ticks != 10 {
		t.Errorf("ticks = %d, want 10", c.ticks)
	}
}

func TestEngineRunUntilImmediatelyDone(t *testing.T) {
	e := NewEngine()
	c := &tickCounter{name: "c"}
	e.Register(c)
	if err := e.RunUntil(nil, func() bool { return true }, 10); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if c.ticks != 0 {
		t.Errorf("done-before-start still ticked %d times", c.ticks)
	}
}

func TestEngineDeadline(t *testing.T) {
	e := NewEngine()
	err := e.RunUntil(nil, func() bool { return false }, 50)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if e.Cycle() != 50 {
		t.Errorf("Cycle = %d, want 50", e.Cycle())
	}
}

func TestEngineCanceled(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunUntil(ctx, func() bool { return false }, 1<<40)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Cancellation is polled, so at most one poll interval of cycles ran.
	if e.Cycle() >= 2*ctxPollInterval {
		t.Errorf("ran %d cycles after cancellation", e.Cycle())
	}
}

func TestEngineCancelMidRun(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	c := &tickCounter{name: "c"}
	e.Register(c)
	err := e.RunUntil(ctx, func() bool {
		if c.ticks == 3000 {
			cancel()
		}
		return false
	}, 1<<40)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if c.ticks < 3000 || c.ticks > 3000+2*ctxPollInterval {
		t.Errorf("canceled after %d ticks", c.ticks)
	}
}

func TestEngineNilContext(t *testing.T) {
	e := NewEngine()
	if err := e.RunUntil(nil, func() bool { return e.Cycle() >= 5 }, 100); err != nil {
		t.Fatalf("nil ctx RunUntil: %v", err)
	}
}

func TestSecondsAt(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.Step()
	}
	if got := e.SecondsAt(1e9); got != 1e-6 {
		t.Errorf("SecondsAt(1GHz) = %g, want 1e-6", got)
	}
}
