package sim

import "testing"

// TestFIFOOrderAcrossWrapAndGrowth interleaves pushes and pops so the ring
// wraps, then grows while wrapped; order must be preserved throughout.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
		for i := 0; i < q.Len(); i++ {
			if got := *q.At(i); got != want+i {
				t.Fatalf("At(%d) = %d, want %d", i, got, want+i)
			}
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
}

func TestFIFOSteadyStateAllocationFree(t *testing.T) {
	var q FIFO[[4]uint64]
	for i := 0; i < 64; i++ {
		q.Push([4]uint64{})
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push([4]uint64{1})
		q.Pop()
	}); allocs != 0 {
		t.Fatalf("push/pop at the high-water mark allocates %.1f/op", allocs)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop of empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Pop()
}
