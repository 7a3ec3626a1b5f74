package main

import (
	"testing"
	"time"
)

// TestOffAtZero pins the flag→config mapping for -retry-budget and
// -antientropy: an operator's 0 must reach dserve as the negative "none"
// (RouterConfig reads 0 as "default": 2 retries, a 5s loop), and every
// other value must pass through untouched.
func TestOffAtZero(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, -1}, {1, 1}, {2, 2}, {-3, -3}} {
		if got := offAtZero(c.in); got != c.want {
			t.Errorf("offAtZero(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := offAtZero(time.Duration(0)); got >= 0 {
		t.Errorf("offAtZero(0s) = %v, want negative", got)
	}
	if got := offAtZero(5 * time.Second); got != 5*time.Second {
		t.Errorf("offAtZero(5s) = %v", got)
	}
}
