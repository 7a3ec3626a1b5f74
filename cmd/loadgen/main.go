// Command loadgen drives a running serve instance with a closed-loop burst
// (-c workers back to back) and prints one line per request kind: count,
// hard errors, 429s and 504s. Host-timed rates and latencies are perf/'s
// job (perf/README.md).
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -graph wg -alg pr -d 10s -c 8
//	loadgen -url ... -graph wg -mutate-every 40 -delete-every 80 -stream-every 200
//	loadgen -url ... -graph wg -d 5s -max-errors 0 -min-availability 1.0   # CI gate
//	loadgen -url ... -graph wg -verify-only -verify-replica http://a -verify-replica http://b
//
// -max-errors exits non-zero when hard failures (non-2xx other than
// 429/504) exceed the cap, and -min-availability when the non-error
// fraction drops below the floor — the CI smoke gates. -verify-replica
// checks afterwards that the listed replicas agree. loadgen works
// unchanged against a cmd/router front: the router speaks the same /v1/*
// API as a single worker.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/loadgen"
)

// options is the load description plus the exit-code gates around it.
type options struct {
	cfg            loadgen.Config
	maxErrs        int64
	minAvail       float64
	verifyWait     time.Duration
	verifyOnly     bool
	verifyReplicas []string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var o options
	c := &o.cfg
	fs.StringVar(&c.BaseURL, "url", "http://127.0.0.1:8080", "serve base URL")
	fs.StringVar(&c.Graph, "graph", "", "resident graph name to target (required)")
	fs.StringVar(&c.Algorithm, "alg", "pr", "algorithm: "+algorithms.NamesList())
	root := fs.Uint("root", 0, "root vertex for rooted algorithms")
	fs.IntVar(&c.Concurrency, "c", 8, "client concurrency")
	fs.DurationVar(&c.Duration, "d", 5*time.Second, "load duration")
	fs.IntVar(&c.MutateEvery, "mutate-every", 0, "make every Nth request a mutation batch (0 = never)")
	fs.IntVar(&c.MutateEdges, "mutate-edges", 16, "edges per mutation/deletion batch")
	fs.IntVar(&c.DeleteEvery, "delete-every", 0, "make every Nth request a deletion batch of previously inserted edges (0 = never)")
	fs.IntVar(&c.StreamEvery, "stream-every", 0, "make every Nth request a bulk NDJSON /v1/stream post (0 = never)")
	fs.IntVar(&c.StreamOps, "stream-ops", 64, "ops per stream request")
	fs.Int64Var(&c.Seed, "seed", 42, "mutation edge seed")
	fs.Int64Var(&o.maxErrs, "max-errors", -1, "exit non-zero when hard failures across all kinds exceed this (-1 = no gate)")
	fs.Float64Var(&o.minAvail, "min-availability", 0, "exit non-zero when the non-error fraction across all kinds falls below this (0 = no gate)")
	fs.DurationVar(&o.verifyWait, "verify-wait", 10*time.Second, "digest convergence budget for -verify-replica")
	fs.BoolVar(&o.verifyOnly, "verify-only", false, "skip the load phase; only run the -verify-replica divergence check")
	fs.Func("verify-replica", "after the run, verify this replica base URL agrees with the others (repeatable; exits non-zero on divergence)", func(v string) error {
		o.verifyReplicas = append(o.verifyReplicas, v)
		return nil
	})
	fs.Parse(args) // ExitOnError
	c.Root = uint32(*root)
	if c.Graph == "" {
		return o, errors.New("-graph is required")
	}
	if o.verifyOnly && len(o.verifyReplicas) == 0 {
		return o, errors.New("-verify-only needs at least one -verify-replica")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	if o.verifyOnly {
		runVerify(o.cfg, o.verifyReplicas, o.verifyWait)
		return
	}

	stats, err := loadgen.Run(context.Background(), o.cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	stats.WriteText(os.Stdout)
	if o.maxErrs >= 0 {
		if got := stats.TotalErrors(); got > o.maxErrs {
			fmt.Fprintf(os.Stderr, "loadgen: %d hard failures, allowed ≤ %d\n", got, o.maxErrs)
			os.Exit(1)
		}
	}
	if o.minAvail > 0 {
		if got := stats.Availability(); got < o.minAvail {
			fmt.Fprintf(os.Stderr, "loadgen: availability %.4f, need ≥ %.4f\n", got, o.minAvail)
			os.Exit(1)
		}
	}
	if len(o.verifyReplicas) > 0 {
		runVerify(o.cfg, o.verifyReplicas, o.verifyWait)
	}
}

func runVerify(cfg loadgen.Config, replicas []string, wait time.Duration) {
	rep, err := loadgen.VerifyReplicas(context.Background(), cfg, replicas, wait)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: verify:", err)
		os.Exit(1)
	}
	for _, st := range rep.Replicas {
		if st.Err != "" {
			fmt.Printf("replica %s: error: %s\n", st.URL, st.Err)
			continue
		}
		fmt.Printf("replica %s: epoch %d digest %s sum %.9g mode %s\n",
			st.URL, st.Epoch, st.Digest, st.Sum, st.Mode)
	}
	if rep.OK() {
		fmt.Printf("replicas agree on %q (converged in %s)\n", cfg.Graph, rep.Waited.Round(time.Millisecond))
		return
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintln(os.Stderr, "loadgen: verify:", m)
	}
	fmt.Fprintf(os.Stderr, "loadgen: verify: %d mismatch(es) on %q\n", len(rep.Mismatches), cfg.Graph)
	os.Exit(1)
}
