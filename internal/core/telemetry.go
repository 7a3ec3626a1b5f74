package core

import "graphpulse/internal/sim/telemetry"

// registerTelemetry wires the accelerator's probes into tel, prefixing
// component names (cluster chips use "chipN/"). Probes are closures that
// only read architectural state at sample time; with telemetry disabled
// (tel == nil) every registration is a no-op and nothing touches the hot
// path. Series names and units are documented in METRICS.md; the lintdoc
// linter keeps that file in sync with what is registered here.
func (a *Accelerator) registerTelemetry(tel *telemetry.Recorder, prefix string) {
	if tel == nil {
		// Bail before building any probe closures: the disabled path must be
		// allocation-free (TestDisabledTelemetryIsNilAndAllocationFree).
		return
	}
	q := prefix + "queue"
	// a.queue is replaced on every slice switch; the closures read the live
	// field, and the fold* accumulators carry earlier slices' totals.
	tel.Gauge(q, "queue_occupancy", "events", func() int64 { return a.queue.population })
	tel.Rate(q, "events_inserted", "events", func() int64 {
		return a.foldInserted + a.queue.inserted - a.snapInserted
	})
	tel.Rate(q, "events_coalesced", "events", func() int64 {
		return a.foldCoalesced + a.queue.coalesced - a.snapCoalesced
	})
	tel.Rate(q, "events_spilled", "events", func() int64 { return a.spilledEvents })

	p := prefix + "proc"
	tel.Rate(p, "events_processed", "events", func() int64 { return a.eventsProcessed })
	tel.Rate(p, "proc_stall_cycles", "cycles", func() int64 {
		var n int64
		for _, pr := range a.procs {
			n += pr.stateHist[procStateStalling]
		}
		return n
	})
	tel.Gauge(p, "proc_input_buffered", "events", func() int64 {
		var n int64
		for _, pr := range a.procs {
			n += int64(pr.input.Len())
		}
		return n
	})

	g := prefix + "gen"
	tel.Rate(g, "events_emitted", "events", func() int64 { return a.eventsEmitted })
	tel.Gauge(g, "gen_tasks_buffered", "tasks", func() int64 {
		var n int64
		for _, u := range a.gens {
			n += int64(u.queue.Len())
		}
		return n
	})

	x := prefix + "xbar"
	tel.Gauge(x, "network_buffered", "events", func() int64 { return int64(len(a.xbar.queue)) })
	tel.Rate(x, "network_delivered", "events", func() int64 { return a.xbar.delivered })

	a.memory.RegisterProbes(tel, prefix+"memory")
	tel.Gauge(prefix+"fetcher", "fetch_staged_lines", "lines", func() int64 {
		return int64(a.fetch.PendingLines())
	})
}

// registerTelemetry wires the cluster interconnect's probes.
func (cl *Cluster) registerTelemetry(tel *telemetry.Recorder) {
	if tel == nil {
		return
	}
	const ic = "interconnect"
	tel.Gauge(ic, "link_egress_buffered", "events", func() int64 {
		var n int64
		for i := range cl.egress {
			n += int64(cl.egress[i].Len())
		}
		return n
	})
	tel.Gauge(ic, "link_inflight", "events", func() int64 {
		var n int64
		for i := range cl.inflight {
			n += int64(len(cl.inflight[i]))
		}
		return n
	})
	tel.Rate(ic, "link_sent", "events", func() int64 { return cl.sent })
	tel.Rate(ic, "link_delivered", "events", func() int64 { return cl.delivered })
}
