package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file when -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: rendered chart diverges from golden\n-- got --\n%s-- want --\n%s", name, got, want)
	}
}

// TestSeriesChartGolden pins the per-round area chart, including the
// round-bucketing path (rounds > width forces column aggregation).
func TestSeriesChartGolden(t *testing.T) {
	rounds := 40
	vals := func(s, r int) float64 {
		if s == 0 {
			return float64(r) // ramp up
		}
		return float64(rounds - r) // ramp down
	}
	var buf bytes.Buffer
	seriesChart(&buf, "Events per round", rounds, []string{"produced", "remaining"}, vals, 16)
	checkGolden(t, "series_chart_bucketed", buf.Bytes())
}

// TestSeriesChartGoldenUnbucketed covers rounds < width (one column per
// round, no aggregation).
func TestSeriesChartGoldenUnbucketed(t *testing.T) {
	vals := [][]float64{
		{0, 1, 4, 2, 0},
		{4, 2, 1, 0, 0},
	}
	var buf bytes.Buffer
	seriesChart(&buf, "small", 5, []string{"a", "longer"},
		func(s, r int) float64 { return vals[s][r] }, 60)
	checkGolden(t, "series_chart_plain", buf.Bytes())
}
