package bench

import (
	"encoding/csv"
	"fmt"
	"io"

	"graphpulse/internal/atomicio"
)

// WriteCSV dumps the sweep as machine-readable rows (one per
// workload) so results can be post-processed or plotted outside the
// repository. Every column is a deterministic function of the workload:
// none reads the host clock. New columns are appended at the end; one is
// removed only when its measurement leaves the sweep. Failed cells keep
// their identity columns, leave the measurement columns empty, and carry
// the reason in the status column.
func (s *Sweep) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"tier", "dataset", "algorithm",
		"ligra_model12_s", "ligra_iterations",
		"gp_opt_cycles", "gp_opt_seconds", "gp_opt_rounds", "gp_opt_events",
		"gp_opt_coalesced", "gp_opt_offchip", "gp_opt_utilization",
		"gp_base_cycles", "gp_base_offchip",
		"gion_cycles", "gion_iterations", "gion_offchip", "gion_utilization",
		"status",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	ff := func(v float64) string { return fmt.Sprintf("%g", v) }
	fi := func(v int64) string { return fmt.Sprintf("%d", v) }
	for _, c := range s.Cells {
		row := []string{s.Tier.String(), c.Workload.Dataset.Abbrev, c.Workload.AlgName}
		if c.Failed() {
			for len(row) < len(header)-1 {
				row = append(row, "")
			}
			row = append(row, "FAILED: "+c.FailureReason())
		} else {
			row = append(row,
				ff(c.LigraModelSeconds), fi(int64(c.LigraIters)),
				fi(int64(c.Opt.Cycles)), ff(c.Opt.Seconds), fi(int64(c.Opt.Rounds)), fi(c.Opt.EventsProcessed),
				fi(c.Opt.EventsCoalesced), fi(c.Opt.OffChipAccesses()), ff(c.Opt.Utilization),
				fi(int64(c.Base.Cycles)), fi(c.Base.OffChipAccesses()),
				fi(int64(c.Gion.Cycles)), fi(int64(c.Gion.Iterations)), fi(c.Gion.OffChipAccesses()), ff(c.Gion.Utilization),
				"ok")
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeSweepCSV writes the sweep to path atomically (temp file + rename),
// so a failed or interrupted write never replaces or corrupts an existing
// CSV from an earlier run.
func writeSweepCSV(path string, s *Sweep) error {
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return s.WriteCSV(w)
	})
	if err != nil {
		return fmt.Errorf("bench: csv %s: %w", path, err)
	}
	return nil
}
