package bench

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"graphpulse/internal/graph/gen"
)

func TestWriteCSV(t *testing.T) {
	sw, err := runSweep(chainWorkloads(t)[:2], Options{Tier: gen.Tiny})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(records) != 3 { // header + 2 workloads
		t.Fatalf("got %d rows, want 3", len(records))
	}
	width := len(records[0])
	for i, r := range records {
		if len(r) != width {
			t.Errorf("row %d has %d columns, want %d", i, len(r), width)
		}
	}
	if records[1][1] != "C48" || records[1][2] != "pr" {
		t.Errorf("row 1 = %v", records[1][:3])
	}
	if records[1][0] != "tiny" {
		t.Errorf("tier column = %q", records[1][0])
	}
}
