package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesChart(t *testing.T) {
	var buf bytes.Buffer
	vals := [][]float64{
		{1, 2, 3, 4},
		{4, 3, 2, 1},
	}
	seriesChart(&buf, "flow", 4, []string{"up", "down"}, func(s, r int) float64 {
		return vals[s][r]
	}, 80)
	out := buf.String()
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Fatalf("missing series rows:\n%s", out)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// "up" grows left→right: its last cell should be darker than its first.
	up := rows[1][strings.Index(rows[1], "|")+1:]
	if up[0] == up[len(up)-2] {
		t.Errorf("no gradient in growing series: %q", up)
	}
}

func TestSeriesChartWiderThanRounds(t *testing.T) {
	var buf bytes.Buffer
	seriesChart(&buf, "t", 100, []string{"s"}, func(_, r int) float64 {
		return float64(r)
	}, 20)
	out := buf.String()
	bar := out[strings.Index(out, "|")+1:]
	bar = bar[:strings.Index(bar, "|")]
	if len([]rune(bar)) != 20 {
		t.Errorf("bucketed width = %d runes, want 20", len([]rune(bar)))
	}
}

func TestSeriesChartDegenerate(t *testing.T) {
	var buf bytes.Buffer
	seriesChart(&buf, "t", 0, []string{"s"}, nil, 20)
	seriesChart(&buf, "t", 5, nil, nil, 20)
	if buf.Len() != 0 {
		t.Error("degenerate inputs produced output")
	}
}
