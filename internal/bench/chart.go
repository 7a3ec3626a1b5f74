package bench

import (
	"fmt"
	"io"
	"strings"
)

// Lightweight ASCII charts so cmd/bench output reads like the paper's
// figures, not just tables. Pure functions, unit-tested.

// seriesChart renders a compact per-round area chart: one row per series,
// one column per (bucketed) round, intensity by value. It gives Figure 4's
// two curves and Figure 8's stacked classes a visual shape in a terminal.
func seriesChart(w io.Writer, title string, rounds int, series []string, value func(series, round int) float64, width int) {
	if rounds == 0 || len(series) == 0 {
		return
	}
	cols := rounds
	if cols > width {
		cols = width
	}
	maxV := 0.0
	for s := range series {
		for r := 0; r < rounds; r++ {
			if v := value(s, r); v > maxV {
				maxV = v
			}
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	shades := []rune(" ░▒▓█")
	maxLabel := 0
	for _, s := range series {
		if len(s) > maxLabel {
			maxLabel = len(s)
		}
	}
	fmt.Fprintf(w, "%s (rounds 0..%d, left to right; intensity ∝ value)\n", title, rounds-1)
	for s, name := range series {
		var b strings.Builder
		for c := 0; c < cols; c++ {
			// Each column aggregates the rounds that fall into it.
			lo := c * rounds / cols
			hi := (c + 1) * rounds / cols
			if hi == lo {
				hi = lo + 1
			}
			v := 0.0
			for r := lo; r < hi && r < rounds; r++ {
				if x := value(s, r); x > v {
					v = x
				}
			}
			idx := int(v / maxV * float64(len(shades)-1))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteRune(shades[idx])
		}
		fmt.Fprintf(w, "  %-*s |%s|\n", maxLabel, name, b.String())
	}
}
