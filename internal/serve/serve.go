// Package serve turns the serial solver (algorithms.SolveCtx) into a
// long-lived graph analytics service: a registry of named resident graphs
// answers algorithm queries over HTTP/JSON, with a bounded compute worker pool,
// admission control, per-request deadlines, a versioned result cache with
// singleflight coalescing, and batched edge insertions that warm-start
// reconvergence from the previous fixed point instead of recomputing from
// scratch — the delta-accumulative model of paper Section II-B run as an
// online system.
//
// The request path:
//
//	/v1/query   POST  algorithm × params over a resident graph
//	/v1/mutate  POST  batched edge insertions and deletions; bumps the epoch
//	/v1/graphs  GET   resident graph inventory
//	/metrics    GET   request counters and latency histograms (METRICS.md)
//	/healthz    GET   liveness
//	/debug/pprof       Go runtime profiles (Config.EnablePprof)
//
// Queries hit the cache first (keyed by graph epoch, algorithm and
// params); identical in-flight misses coalesce onto one computation;
// distinct misses go through a bounded queue onto the worker pool, and a
// full queue answers 429 with Retry-After instead of building unbounded
// backlog. Request deadlines propagate into the solver through context
// cancellation.
//
// Mutations cover the full streaming story (internal/stream): insertions
// warm-start from the prior fixed point via correction seeding, deletions
// re-initialize only the dependency cone of the removed contributions
// (degrading to a full replay past Config.MaxConeFraction).
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"graphpulse/internal/graph/gen"
	"graphpulse/internal/stream"
)

// Config describes a Server. The zero value of every field is replaced by
// the documented default; only Graphs is required.
type Config struct {
	// Graphs lists the resident graphs loaded at startup.
	Graphs []GraphSpec
	// Workers sizes the compute worker pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted computations;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache, evicting least-recently-used
	// entries (default 128).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the client does not
	// send timeout_ms (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 60s).
	MaxTimeout time.Duration
	// ComputeTimeout bounds one computation on the worker pool. It is
	// deliberately independent of any single request deadline: a coalesced
	// computation keeps running while at least one waiter remains
	// (default 120s).
	ComputeTimeout time.Duration
	// MutationHistory is how many recent mutation batches each graph
	// retains for warm-starting queries whose cached state predates the
	// current epoch (default 8).
	MutationHistory int
	// MaxConeFraction caps selective re-initialization after deletions:
	// when the dependency cone of a deletion batch exceeds this fraction
	// of the vertex set, the warm start degrades to a full replay (cold
	// solve) instead (default stream.DefaultMaxConeFraction).
	MaxConeFraction float64
	// Cache supplies memoized Table IV dataset stand-ins for "ABBREV:tier"
	// graph sources (default gen.Default).
	Cache *gen.Cache
	// EnablePprof mounts net/http/pprof under /debug/pprof.
	EnablePprof bool
	// Logf, when non-nil, receives one line per lifecycle event (startup,
	// shutdown). Request logging is deliberately absent — /metrics is the
	// observability surface.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.ComputeTimeout <= 0 {
		c.ComputeTimeout = 120 * time.Second
	}
	if c.MutationHistory <= 0 {
		c.MutationHistory = 8
	}
	if c.MaxConeFraction <= 0 {
		c.MaxConeFraction = stream.DefaultMaxConeFraction
	}
	if c.Cache == nil {
		c.Cache = gen.Default
	}
	return c
}

// ErrBusy is returned by the admission queue when it is full; the HTTP
// layer maps it to 429 with a Retry-After header.
var ErrBusy = errors.New("serve: compute queue full")

// Server is the serving runtime: resident graphs, result cache, worker
// pool, and the HTTP handler over them. Create with New, expose with
// Handler or Start, stop with Shutdown.
type Server struct {
	cfg     Config
	graphs  map[string]*residentGraph
	order   []string // registration order, for deterministic listings
	cache   *resultCache
	metrics *Metrics
	started time.Time

	jobs    chan func()
	workers sync.WaitGroup
	stop    sync.Once

	flightMu sync.Mutex
	flights  map[cacheKey]*flight

	mu      sync.Mutex
	httpSrv *http.Server

	// testComputeStall, when non-nil, is invoked at the start of every
	// pooled computation with the computation's context. Tests use it to
	// hold computations open deterministically (saturation, coalescing,
	// drain); production code never sets it.
	testComputeStall func(ctx context.Context)
}

// New builds a Server: loads every configured graph, starts the worker
// pool, and returns ready to serve. It does not open a listener — use
// Start, or mount Handler on a server of your own.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Graphs) == 0 {
		return nil, errors.New("serve: no graphs configured")
	}
	s := &Server{
		cfg:     cfg,
		graphs:  make(map[string]*residentGraph),
		cache:   newResultCache(cfg.CacheEntries),
		metrics: NewMetrics(),
		flights: make(map[cacheKey]*flight),
		jobs:    make(chan func(), cfg.QueueDepth),
		started: time.Now(),
	}
	for _, spec := range cfg.Graphs {
		rg, err := loadResident(spec, cfg.Cache, cfg.MutationHistory)
		if err != nil {
			return nil, fmt.Errorf("serve: load graph %q: %w", spec.Name, err)
		}
		if _, dup := s.graphs[rg.name]; dup {
			return nil, fmt.Errorf("serve: duplicate graph name %q", rg.name)
		}
		s.graphs[rg.name] = rg
		s.order = append(s.order, rg.name)
		vg, _ := rg.view()
		kind := ""
		if rg.store != nil {
			kind = " (out-of-core)"
		}
		s.logf("serve: graph %q resident%s: %d vertices, %d edges", rg.name,
			kind, vg.NumVertices(), vg.NumEdges())
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for job := range s.jobs {
				job()
			}
		}()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Metrics returns the server's live metrics (counters readable at any
// time; rendered by the /metrics endpoint).
func (s *Server) Metrics() *Metrics { return s.metrics }

// submit enqueues a computation, failing with ErrBusy when the bounded
// queue is full — the admission-control point.
func (s *Server) submit(job func()) error {
	select {
	case s.jobs <- job:
		return nil
	default:
		return ErrBusy
	}
}

// Start opens a listener on addr ("" or host:0 pick a free port), serves
// Handler on it in the background, and returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	return s.StartWith(addr, s.Handler())
}

// StartWith is Start with a caller-supplied handler (normally a mux
// wrapping Handler with extra routes — the distributed tier's worker
// adds GET /internal/snapshot this way). Shutdown still drains the
// listener it opens.
func (s *Server) StartWith(addr string, h http.Handler) (net.Addr, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logf("serve: http server: %v", err)
		}
	}()
	s.logf("serve: listening on %s", ln.Addr())
	return ln.Addr(), nil
}

// Shutdown drains the server: it stops accepting connections, waits for
// in-flight requests to complete (bounded by ctx), then stops the worker
// pool. In-flight computations run to completion; queued-but-unstarted
// ones still execute before the pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.stop.Do(func() { close(s.jobs) })
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	s.logf("serve: drained")
	return err
}
