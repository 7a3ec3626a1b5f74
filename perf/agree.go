package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

func readResult(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// agreeFiles compares result file b with a, metric by metric: an
// end-to-end metric may be worse in b by at most its bound, and a metric
// whose own slice-to-slice spread exceeds the bound is unresolved, not ok;
// an exact per-layer count must be bit-identical. Any outside-bound row is
// an error.
func agreeFiles(pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed {
		fmt.Printf("note: seeds differ (%d, %d): exact counts are not comparable and are skipped\n", a.Seed, b.Seed)
	}
	outside := 0
	for _, w := range workloadDefs {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s missing from a result file", w.Name)
		}
		for _, d := range endToEndDefs {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse := (vb.Value - va.Value) / va.Value
			if d.Better == hi {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "outside-bound"
				outside++
			case math.Max(va.Spread, vb.Spread) > d.Bound:
				verdict = "unresolved (spread > bound)"
			}
			fmt.Printf("%-15s %-18s %12.6g -> %12.6g %-5s worse by %+6.1f%% (bound %2.0f%%, spread %4.1f%%) %s\n",
				w.Name, d.Name, va.Value, vb.Value, d.Unit, 100*worse, 100*d.Bound, 100*math.Max(va.Spread, vb.Spread), verdict)
		}
		if a.Seed != b.Seed {
			continue
		}
		for _, d := range layerDefs {
			if va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value; d.Exact && va != vb {
				fmt.Printf("%-15s %-36s %v -> %v exact count differs: outside-bound\n", w.Name, d.Name, va, vb)
				outside++
			}
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("%-15s failed %d -> %d: outside-bound\n", w.Name, wa.Failed, wb.Failed)
			outside++
		}
	}
	if outside > 0 {
		return errors.New(fmt.Sprint(outside, " (metric, workload) pairs outside their bound"))
	}
	return nil
}
