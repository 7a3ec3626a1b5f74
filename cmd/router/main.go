// Command router fronts a distributed serving tier: it places each graph
// on its replica set of cmd/serve workers (started with -worker) by
// rendezvous hashing of the graph name, routes /v1/query and /v1/mutate
// there, replicates writes, retries failed reads on the next replica, and
// health-checks the fleet — OPERATIONS.md is the deployment runbook.
//
// Usage:
//
//	router -addr :8090 -replication 2 \
//	       -worker http://127.0.0.1:8081 -worker http://127.0.0.1:8082
//
// Workers normally join dynamically by registering (serve -worker
// -router http://...:8090); -worker seeds are optional static entries.
//
// Endpoints: the worker-compatible POST /v1/query, POST /v1/mutate and
// GET /v1/graphs (merged across workers), plus
// GET /healthz, GET /metrics (router_* names, METRICS.md), and the
// control plane POST /internal/register, GET /internal/workers,
// POST /internal/drain. SIGINT/SIGTERM drain in-flight requests before
// exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphpulse/internal/dserve"
)

// options is everything the command line decides; main only builds the
// router it describes and waits for a signal.
type options struct {
	addr   string
	drain  time.Duration
	router dserve.RouterConfig // main fills in Logf
}

func parseFlags(args []string) (options, error) {
	return parseFlagSet(flag.NewFlagSet("router", flag.ExitOnError), args)
}

// parseFlagSet defines router's flags on fs and parses args with it.
func parseFlagSet(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	c := &o.router
	fs.StringVar(&o.addr, "addr", ":8090", "listen address")
	fs.IntVar(&c.Replication, "replication", 1, "workers owning each graph (writes fan out to all, reads rotate)")
	fs.DurationVar(&c.ProbeInterval, "probe-interval", time.Second, "health-probe period for healthy workers")
	fs.DurationVar(&c.ProbeTimeout, "probe-timeout", 2*time.Second, "per-probe timeout")
	fs.IntVar(&c.FailAfter, "fail-after", 2, "consecutive failures before a worker is ejected")
	fs.IntVar(&c.RetryBudget, "retry-budget", 2, "extra replicas a failed read is retried on (0 disables retries)")
	fs.DurationVar(&c.BackoffBase, "backoff", 500*time.Millisecond, "base re-probe backoff for ejected workers")
	fs.DurationVar(&c.BackoffMax, "backoff-max", 15*time.Second, "cap on the ejected-worker re-probe backoff")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "shutdown drain budget for in-flight requests")
	fs.Uint64Var(&c.Seed, "seed", 1, "seed for backoff jitter (and any other router randomness)")
	fs.DurationVar(&c.AntiEntropyInterval, "antientropy", 5*time.Second, "anti-entropy divergence-check period (0 disables)")
	fs.Func("worker", "seed worker base URL (repeatable; workers can also self-register)", func(v string) error {
		c.Workers = append(c.Workers, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	c.RetryBudget = offAtZero(c.RetryBudget)
	c.AntiEntropyInterval = offAtZero(c.AntiEntropyInterval)
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "router:", err)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	o.router.Logf = logger.Printf
	rt, err := dserve.NewRouter(o.router)
	if err != nil {
		logger.Fatal(err)
	}
	bound, err := rt.Start(o.addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("routing on http://%s (replication %d, %d seed workers)", bound, o.router.Replication, len(o.router.Workers))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	logger.Printf("signal received, draining (budget %s)", o.drain)
	dctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := rt.Shutdown(dctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
}

// offAtZero maps a flag whose 0 means "off" onto the RouterConfig field
// whose 0 means "use the default" and whose negative values mean "none".
func offAtZero[T int | time.Duration](v T) T {
	if v == 0 {
		return -1
	}
	return v
}
