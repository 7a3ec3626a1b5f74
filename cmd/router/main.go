// Command router fronts a distributed serving tier: it consistent-hashes
// /v1/query and /v1/mutate by graph name across N cmd/serve workers
// (started with -worker), replicates writes, retries failed reads on the
// next replica, and health-checks the fleet — OPERATIONS.md is the
// deployment runbook.
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
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphpulse/internal/dserve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		repl      = flag.Int("replication", 1, "workers owning each graph (writes fan out to all, reads rotate)")
		vnodes    = flag.Int("vnodes", 64, "virtual nodes per worker on the consistent-hash ring")
		probeInt  = flag.Duration("probe-interval", time.Second, "health-probe period for healthy workers")
		probeTO   = flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		failAfter = flag.Int("fail-after", 2, "consecutive failures before a worker is ejected")
		retries   = flag.Int("retry-budget", 2, "extra replicas a failed read is retried on (0 disables retries)")
		backoff   = flag.Duration("backoff", 500*time.Millisecond, "base re-probe backoff for ejected workers")
		backoffMx = flag.Duration("backoff-max", 15*time.Second, "cap on the ejected-worker re-probe backoff")
		drain     = flag.Duration("drain", 10*time.Second, "shutdown drain budget for in-flight requests")
		seed      = flag.Uint64("seed", 1, "seed for backoff jitter (and any other router randomness)")
		aeEvery   = flag.Duration("antientropy", 5*time.Second, "anti-entropy divergence-check period (0 disables)")
	)
	var seeds []string
	flag.Func("worker", "seed worker base URL (repeatable; workers can also self-register)", func(v string) error {
		seeds = append(seeds, v)
		return nil
	})
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	rt, err := dserve.NewRouter(dserve.RouterConfig{
		Workers:             seeds,
		Replication:         *repl,
		VirtualNodes:        *vnodes,
		ProbeInterval:       *probeInt,
		ProbeTimeout:        *probeTO,
		FailAfter:           *failAfter,
		RetryBudget:         offAtZero(*retries),
		BackoffBase:         *backoff,
		BackoffMax:          *backoffMx,
		Seed:                *seed,
		AntiEntropyInterval: offAtZero(*aeEvery),
		Logf:                logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	bound, err := rt.Start(*addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("routing on http://%s (replication %d, %d seed workers)", bound, *repl, len(seeds))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	logger.Printf("signal received, draining (budget %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
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
