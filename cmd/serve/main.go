// Command serve runs the graph analytics service: resident graphs
// answering algorithm queries over HTTP/JSON, with batched edge
// insertions warm-starting reconvergence from the previous fixed point
// (README "Serving").
//
// Usage:
//
//	serve -addr :8080 -graph wg=WG:tiny                 # Table IV stand-in
//	serve -graph web=crawl.el -graph social=fb.el       # edge-list files
//	serve -graph wg=WG:mini -workers 8
//	serve -graph big=wg.graphpack -resident-bytes 33554432
//
// A .graphpack source (cmd/graphpack) is served out-of-core and
// read-only: queries stream slices through the residency budget set by
// -resident-bytes; mutation endpoints answer errors.
//
// With -worker the process joins a distributed serving tier behind
// cmd/router (OPERATIONS.md): it registers with -router, heartbeats,
// persists snapshots to -snapshot-dir, and boots in dserve.Worker.Start's
// order — newest local snapshot, WAL tail, listen, then catch-up from a
// peer via the router — instead of cold re-solving:
//
//	serve -worker -router http://127.0.0.1:8090 -addr 127.0.0.1:8081 \
//	      -graph wg=WG:tiny -snapshot-dir /var/lib/graphpulse/w1
//
// Endpoints: POST /v1/query, POST /v1/mutate, GET /v1/graphs,
// GET /metrics, GET /healthz, /debug/pprof (plus GET /internal/snapshot
// in worker mode). SIGINT/SIGTERM drain in-flight requests (bounded by
// -drain) before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphpulse/internal/dserve"
	"graphpulse/internal/serve"
)

// options is everything the command line decides; main only builds the
// servers it describes and waits for a signal.
type options struct {
	addr  string
	drain time.Duration
	serve serve.Config
	// worker is nil outside -worker mode. main fills in its Server and Logf.
	worker *dserve.WorkerConfig
}

func parseFlags(args []string) (options, error) {
	return parseFlagSet(flag.NewFlagSet("serve", flag.ExitOnError), args)
}

// parseFlagSet defines serve's flags on fs and parses args with it.
func parseFlagSet(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	c := &o.serve
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.Workers, "workers", 0, "compute worker pool size (0 = GOMAXPROCS)")
	resideB := fs.Int64("resident-bytes", 0, "out-of-core residency budget in bytes applied to every .graphpack -graph (0 = unlimited)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "shutdown drain budget for in-flight requests")
	fs.BoolVar(&c.EnablePprof, "pprof", true, "mount /debug/pprof")

	// Distributed-tier (worker mode) flags; see OPERATIONS.md.
	var w dserve.WorkerConfig
	asWorker := fs.Bool("worker", false, "join a distributed tier: register with -router, heartbeat, persist and restore snapshots")
	fs.StringVar(&w.RouterURL, "router", "", "router base URL to register with (worker mode)")
	fs.StringVar(&w.Advertise, "advertise", "", "base URL the router and peers reach this worker at (default: derived from the bound address)")
	fs.StringVar(&w.SnapshotDir, "snapshot-dir", "", "directory for per-graph snapshot files (worker mode; empty disables persistence)")
	fs.DurationVar(&w.SnapshotEvery, "snapshot-every", 30*time.Second, "snapshot persist period (worker mode)")
	fs.StringVar(&w.WALDir, "wal-dir", "", "directory for per-graph mutation WALs (worker mode; empty disables the WAL)")
	fs.Func("graph", "resident graph as name=SOURCE; SOURCE is ABBREV:tier (e.g. WG:tiny) or a graph file (repeatable)", func(v string) error {
		spec, err := serve.ParseGraphArg(v)
		if err == nil {
			c.Graphs = append(c.Graphs, spec)
		}
		return err
	})
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	if len(c.Graphs) == 0 {
		return o, errors.New("at least one -graph name=SOURCE is required (e.g. -graph wg=WG:tiny)")
	}
	if *resideB > 0 {
		for i := range c.Graphs {
			c.Graphs[i].ResidentBytes = *resideB
		}
	}
	if *asWorker {
		if w.Advertise == "" {
			adv, err := deriveAdvertise(o.addr)
			if err != nil {
				return o, fmt.Errorf("cannot derive -advertise from -addr %q: %v (pass -advertise explicitly)", o.addr, err)
			}
			w.Advertise = adv
		}
		o.worker = &w
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	o.serve.Logf = logger.Printf
	srv, err := serve.New(o.serve)
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start, stop, mode := srv.Start, srv.Shutdown, ""
	if o.worker != nil {
		o.worker.Server, o.worker.Logf = srv, logger.Printf
		wk, err := dserve.NewWorker(*o.worker)
		if err != nil {
			logger.Fatal(err)
		}
		start, stop, mode = wk.Start, wk.Stop, " (worker mode)"
	}
	bound, err := start(o.addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("serving%s on http://%s", mode, bound)

	<-ctx.Done()
	stopSignals()
	logger.Printf("signal received, draining (budget %s)", o.drain)
	dctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := stop(dctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
}

// deriveAdvertise turns a -addr listen spec into a reachable base URL,
// mapping wildcard hosts onto loopback. A ":0" port cannot be derived —
// the port is only known after binding, so -advertise must be explicit.
func deriveAdvertise(addr string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	if port == "" || port == "0" {
		return "", fmt.Errorf("listen port is dynamic")
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}
