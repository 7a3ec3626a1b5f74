package stream

import (
	"testing"
	"time"

	"graphpulse/internal/graph"
)

func e(src, dst int) graph.Edge {
	return graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: 1}
}

func TestLogRemoveMatchesAllLiveCopies(t *testing.T) {
	l := NewLog([]graph.Edge{e(0, 1), e(1, 2)})
	l.Append([]graph.Edge{e(0, 1), e(2, 3)}, time.Unix(10, 0))

	removed, missed := l.Remove([]graph.Edge{e(0, 1), e(5, 6)})
	if len(removed) != 2 {
		t.Fatalf("removed %d edges, want 2 (both live copies of 0->1)", len(removed))
	}
	if missed != 1 {
		t.Fatalf("missed = %d, want 1 (5->6 is not live)", missed)
	}
	if l.Len() != 2 {
		t.Fatalf("log has %d edges after removal, want 2", l.Len())
	}

	// A duplicate delete of the same pair in a later batch misses.
	_, missed = l.Remove([]graph.Edge{e(0, 1)})
	if missed != 1 {
		t.Fatalf("re-delete missed = %d, want 1", missed)
	}
}

func TestLogRemoveCountsDuplicateMissOnce(t *testing.T) {
	l := NewLog([]graph.Edge{e(0, 1)})
	removed, missed := l.Remove([]graph.Edge{e(4, 4), e(4, 4)})
	if len(removed) != 0 || missed != 1 {
		t.Fatalf("removed=%d missed=%d, want 0 removed and the duplicate miss counted once", len(removed), missed)
	}
}
