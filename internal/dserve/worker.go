package dserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"graphpulse/internal/atomicio"
	"graphpulse/internal/serve"
	"graphpulse/internal/stream"
)

// WorkerConfig describes a Worker wrapping one serve.Server.
type WorkerConfig struct {
	// Server is the wrapped single-process serving instance. Required.
	Server *serve.Server
	// RouterURL is the router's base URL. Empty runs the worker standalone:
	// no registration, no peer catch-up, but local snapshot persist/restore
	// still works.
	RouterURL string
	// Advertise is the base URL peers and the router reach this worker at
	// (e.g. "http://127.0.0.1:8081"). Required when RouterURL is set.
	Advertise string
	// SnapshotDir is where snapshots are persisted, one file per graph
	// (<dir>/<graph>.snap.json, graph name path-escaped). Empty disables
	// persistence.
	SnapshotDir string
	// SnapshotEvery is the persist period (default 30s).
	SnapshotEvery time.Duration
	// WALDir enables the durable mutation WAL: one directory per graph
	// (<dir>/<graph>/, graph name path-escaped) of JSON-lines segments.
	// Every applied mutation epoch is appended and fsynced before the
	// mutation is acknowledged; on restart Start re-applies the tail
	// past the last snapshot, and the anti-entropy loop ships suffixes to
	// lagging peers. Empty disables the WAL.
	WALDir string
	// WALSegmentBytes is the segment rotation threshold (default 1 MiB).
	// Segments fully covered by a persisted snapshot are deleted.
	WALSegmentBytes int64
	// Heartbeat is the re-registration period (default 5s). Heartbeats keep
	// a restarted router's worker table warm and double as a readmission
	// signal after an ejection.
	Heartbeat time.Duration
	// Client overrides the HTTP client for all outbound traffic:
	// registration heartbeats and the repair ladder's digest, WAL-suffix
	// and snapshot fetches (default: 30s timeout).
	Client *http.Client
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() (WorkerConfig, error) {
	if c.Server == nil {
		return c, fmt.Errorf("dserve: WorkerConfig.Server is required")
	}
	if c.RouterURL != "" {
		u, err := normalizeWorkerURL(c.RouterURL)
		if err != nil {
			return c, fmt.Errorf("dserve: bad router url %q: %w", c.RouterURL, err)
		}
		c.RouterURL = u
		if c.Advertise == "" {
			return c, fmt.Errorf("dserve: Advertise is required when RouterURL is set")
		}
	}
	if c.Advertise != "" {
		u, err := normalizeWorkerURL(c.Advertise)
		if err != nil {
			return c, fmt.Errorf("dserve: bad advertise url %q: %w", c.Advertise, err)
		}
		c.Advertise = u
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	if c.WALSegmentBytes <= 0 {
		c.WALSegmentBytes = 1 << 20
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c, nil
}

// Worker wraps a serve.Server with the distributed-tier duties:
// registration heartbeats, snapshot persistence, the mutation WAL, the
// peer endpoints, and the recovery ladder (restoreLocal, replayWAL,
// repairFrom). Start and Stop own its lifecycle.
type Worker struct {
	cfg  WorkerConfig
	srv  *serve.Server
	wals map[string]*WAL // per-graph mutation logs; nil when WALDir is unset

	// persisted is the epoch of each graph's snapshot file as this worker
	// last wrote or read it, so an idle persist tick compares two integers
	// instead of decoding the file. persistMu serializes persist passes.
	persistMu sync.Mutex
	persisted map[string]uint64

	// stop and done belong to the background loop Start launched.
	stop context.CancelFunc
	done chan struct{}
}

// NewWorker builds a Worker around cfg.Server and registers the worker_*
// counters into the server's metrics catalogue, so one scrape of the
// worker's /metrics covers both tiers. With a WALDir it also opens (and
// tail-repairs) each graph's mutation log and installs the serve-layer
// mutation hook, so every acknowledged epoch is on disk before the
// client hears about it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.Server.Metrics().Register(workerCounters, nil)
	wk := &Worker{cfg: cfg, srv: cfg.Server, persisted: make(map[string]uint64)}
	if cfg.WALDir != "" {
		wk.wals = make(map[string]*WAL)
		for _, name := range cfg.Server.GraphNames() {
			w, err := openWAL(filepath.Join(cfg.WALDir, url.PathEscape(name)), cfg.WALSegmentBytes)
			if err != nil {
				return nil, fmt.Errorf("dserve: open wal for graph %q: %w", name, err)
			}
			if n := w.TailDropped(); n > 0 {
				wk.srv.Metrics().Add("wal_tail_dropped", int64(n))
				wk.logf("dserve: worker: wal of %q: dropped %d torn tail piece(s)", name, n)
			}
			wk.wals[name] = w
		}
		cfg.Server.SetMutationHook(wk.onMutation)
	}
	return wk, nil
}

// onMutation is the serve-layer mutation hook: append the applied epoch
// to the graph's WAL before the mutation is acknowledged. Re-fired hooks
// during replay deduplicate inside Append (epoch at or below the last
// logged is skipped).
func (wk *Worker) onMutation(graph string, ch stream.Change) {
	w := wk.wals[graph]
	if w == nil {
		return
	}
	appended, rotated, err := w.Append(ch)
	if err != nil {
		wk.srv.Metrics().Add("wal_append_errors", 1)
		wk.logf("dserve: worker: wal append of %q epoch %d: %v", graph, ch.Epoch, err)
		return
	}
	if rotated {
		wk.srv.Metrics().Add("wal_segments_rotated", 1)
	}
	if appended {
		wk.srv.Metrics().Add("wal_appends", 1)
	}
}

// replayWAL re-applies each graph's logged tail past the resident epoch —
// Start's second step, after restoreLocal. A restarted worker
// thereby recovers every mutation acknowledged after its last snapshot:
// the snapshot seeds the result cache at its epoch, the replayed batches
// rebuild the mutation history up to the logged epoch, and the first
// query warm-starts instead of cold-solving. A gap (snapshot newer than
// the log's coverage, or a hole) stops replay for that graph and counts
// wal_replay_errors — the anti-entropy loop heals the remainder.
func (wk *Worker) replayWAL() {
	for _, name := range wk.srv.GraphNames() {
		w := wk.wals[name]
		if w == nil {
			continue
		}
		epoch, err := wk.srv.GraphEpoch(name)
		if err != nil {
			continue
		}
		recs, err := w.TailAfter(epoch)
		if err != nil {
			wk.srv.Metrics().Add("wal_replay_errors", 1)
			wk.logf("dserve: worker: wal replay of %q past epoch %d: %v", name, epoch, err)
			continue
		}
		replayed, err := wk.replayTail(name, recs)
		wk.srv.Metrics().Add("wal_replayed_batches", int64(replayed))
		if err != nil {
			wk.srv.Metrics().Add("wal_replay_errors", 1)
			wk.logf("dserve: worker: wal replay of %q: %v", name, err)
		}
		if cur, err := wk.srv.GraphEpoch(name); err == nil && cur > epoch {
			wk.logf("dserve: worker: wal replay advanced %q from epoch %d to %d", name, epoch, cur)
		}
	}
}

// Server returns the wrapped serve.Server.
func (wk *Worker) Server() *serve.Server { return wk.srv }

// Handler returns the worker's routing table: the wrapped server's full
// /v1/* surface plus the peer endpoints — GET /internal/snapshot,
// GET /internal/digest, GET /internal/wal, and POST /internal/repair.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/snapshot", wk.handleSnapshot)
	mux.HandleFunc("GET /internal/digest", wk.handleDigest)
	mux.HandleFunc("GET /internal/wal", wk.handleWALTail)
	mux.HandleFunc("POST /internal/repair", wk.handleRepair)
	mux.Handle("/", wk.srv.Handler())
	return mux
}

// handleDigest serves ?graph='s (epoch, state digest) pair — the router's
// anti-entropy unit of comparison, and what an operator compares across
// replicas to audit a fleet.
func (wk *Worker) handleDigest(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("graph")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing ?graph=name")
		return
	}
	info, err := wk.srv.StateDigest(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	wk.srv.Metrics().Add("antientropy_digests_served", 1)
	writeJSON(w, http.StatusOK, info)
}

// handleWALTail ships the WAL records after ?after= to a repairing peer,
// answering 410 Gone when the log cannot produce the suffix (no WAL,
// truncated coverage, or a hole) — the peer then falls back to a full
// snapshot fetch.
func (wk *Worker) handleWALTail(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("graph")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing ?graph=name")
		return
	}
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ?after=: %v", err)
		return
	}
	wal := wk.wals[name]
	if wal == nil {
		wk.srv.Metrics().Add("antientropy_wal_gone", 1)
		writeError(w, http.StatusGone, "no wal for graph %q", name)
		return
	}
	recs, err := wal.TailAfter(after)
	if errors.Is(err, ErrWALTruncated) {
		wk.srv.Metrics().Add("antientropy_wal_gone", 1)
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	info, err := wk.srv.StateDigest(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	wk.srv.Metrics().Add("antientropy_wal_served", 1)
	writeJSON(w, http.StatusOK, WALTailResponse{
		Graph:   name,
		Epoch:   info.Epoch,
		Digest:  info.Digest,
		Records: recs,
	})
}

// handleRepair runs one repair against the donor peer named in the body.
func (wk *Worker) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req RepairRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad repair body: %v", err)
		return
	}
	if req.Graph == "" || req.Peer == "" {
		writeError(w, http.StatusBadRequest, "repair needs graph and peer")
		return
	}
	peer, err := normalizeWorkerURL(req.Peer)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad peer url %q: %v", req.Peer, err)
		return
	}
	resp, err := wk.repairFrom(r.Context(), req.Graph, peer)
	if err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// repairFrom is the peer half of the recovery ladder (local snapshot →
// local WAL tail → peer WAL suffix → peer snapshot) and the only way a
// replica catches up from a peer, whoever noticed the gap: the router's
// anti-entropy loop (POST /internal/repair) or the worker itself on
// rejoin (run). A replica at or ahead of the donor fetches nothing;
// otherwise it replays the donor's WAL suffix past the local epoch when
// that covers the gap and converges to the donor's digest, and adopts the
// donor's full snapshot when it does not. Either way the replica
// resynchronizes in place, keeping its cache and serving throughout.
func (wk *Worker) repairFrom(ctx context.Context, graphName, peer string) (RepairResponse, error) {
	local, err := wk.srv.StateDigest(graphName)
	if err != nil {
		wk.srv.Metrics().Add("antientropy_repair_errors", 1)
		return RepairResponse{}, err
	}
	query := "?graph=" + url.QueryEscape(graphName)
	var donor serve.DigestInfo
	if err := callJSON(ctx, wk.cfg.Client, http.MethodGet, peer+"/internal/digest"+query, nil, &donor, 1<<20); err != nil {
		wk.srv.Metrics().Add("antientropy_repair_errors", 1)
		return RepairResponse{}, fmt.Errorf("repair of %q: %w", graphName, err)
	}
	if local.Epoch > donor.Epoch || local == donor {
		wk.logf("dserve: worker: %q at epoch %d needs nothing from %s (epoch %d)", graphName, local.Epoch, peer, donor.Epoch)
		return RepairResponse{Graph: graphName, Mode: "wal", Epoch: local.Epoch}, nil
	}
	var tail WALTailResponse
	walURL := fmt.Sprintf("%s/internal/wal%s&after=%d", peer, query, local.Epoch)
	if callJSON(ctx, wk.cfg.Client, http.MethodGet, walURL, nil, &tail, maxProxyRespBody) == nil {
		if replayed, err := wk.replayTail(graphName, tail.Records); err == nil {
			if now, err := wk.srv.StateDigest(graphName); err == nil &&
				(now.Epoch > tail.Epoch || (now.Epoch == tail.Epoch && now.Digest == tail.Digest)) {
				// Converged to (or past — a concurrent fan-out landed here
				// too) the donor's shipped state.
				wk.srv.Metrics().Add("antientropy_repairs_applied", 1)
				wk.logf("dserve: worker: repaired %q to epoch %d via wal suffix from %s (%d batches)",
					graphName, now.Epoch, peer, replayed)
				return RepairResponse{Graph: graphName, Mode: "wal", Epoch: now.Epoch, Replayed: replayed}, nil
			}
		}
	}
	// WAL suffix unavailable (410: truncated or no WAL), incomplete, or it
	// did not converge: full snapshot transfer.
	var snap Snapshot
	if err := callJSON(ctx, wk.cfg.Client, http.MethodGet, peer+"/internal/snapshot"+query, nil, &snap, maxProxyRespBody); err != nil {
		wk.srv.Metrics().Add("worker_snapshot_fetch_errors", 1)
		wk.srv.Metrics().Add("antientropy_repair_errors", 1)
		return RepairResponse{}, fmt.Errorf("repair of %q: wal suffix unusable and snapshot fetch failed: %w", graphName, err)
	}
	// A stale snapshot means a concurrent write already carried this
	// replica past the donor: nothing to adopt, and nothing failed.
	switch err := wk.adoptSnapshot(&snap, "repair peer "+peer); {
	case err == nil:
		wk.srv.Metrics().Add("antientropy_snapshot_fallbacks", 1)
	case !errors.Is(err, serve.ErrSnapshotStale):
		wk.srv.Metrics().Add("antientropy_repair_errors", 1)
		return RepairResponse{}, fmt.Errorf("repair of %q: wal suffix unusable and snapshot import failed: %w", graphName, err)
	}
	epoch, _ := wk.srv.GraphEpoch(graphName) // the graph resolved above
	return RepairResponse{Graph: graphName, Mode: "snapshot", Epoch: epoch}, nil
}

// replayTail applies WAL records in order, stopping at the first failure,
// and returns how many advanced the graph.
func (wk *Worker) replayTail(graphName string, recs []stream.Change) (int, error) {
	replayed := 0
	for _, rec := range recs {
		applied, err := wk.srv.ApplyReplay(graphName, rec)
		if err != nil {
			return replayed, fmt.Errorf("epoch %d: %w", rec.Epoch, err)
		}
		if applied {
			replayed++
		}
	}
	return replayed, nil
}

// handleSnapshot serves the current snapshot of ?graph=name to a peer.
func (wk *Worker) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("graph")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing ?graph=name")
		return
	}
	snap, err := wk.srv.ExportSnapshot(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	wk.srv.Metrics().Add("worker_snapshot_served", 1)
	writeJSON(w, http.StatusOK, snap)
}

// snapshotPath is the on-disk location of one graph's snapshot.
func (wk *Worker) snapshotPath(graph string) string {
	return filepath.Join(wk.cfg.SnapshotDir, url.PathEscape(graph)+".snap.json")
}

// PersistSnapshots writes every resident graph's snapshot atomically to
// SnapshotDir. A graph whose snapshot file still exists at the epoch
// this worker last wrote (or restored) it at is skipped without being
// read. No-op without a SnapshotDir.
func (wk *Worker) PersistSnapshots() error {
	if wk.cfg.SnapshotDir == "" {
		return nil
	}
	wk.persistMu.Lock()
	defer wk.persistMu.Unlock()
	if err := os.MkdirAll(wk.cfg.SnapshotDir, 0o755); err != nil {
		wk.srv.Metrics().Add("worker_snapshot_save_errors", 1)
		return err
	}
	var firstErr error
	for _, name := range wk.srv.GraphNames() {
		if err := wk.persistOne(name); err != nil {
			wk.srv.Metrics().Add("worker_snapshot_save_errors", 1)
			wk.logf("dserve: worker: persist snapshot of %q: %v", name, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (wk *Worker) persistOne(name string) error {
	epoch, err := wk.srv.GraphEpoch(name)
	if err != nil {
		return err
	}
	path := wk.snapshotPath(name)
	if last, ok := wk.persisted[name]; ok && last == epoch {
		if _, err := os.Stat(path); err == nil {
			return nil // already current
		}
	}
	snap, err := wk.srv.ExportSnapshot(name)
	if err != nil {
		return err
	}
	if err := atomicio.WriteJSON(path, snap, ""); err != nil {
		return err
	}
	wk.persisted[name] = snap.Epoch
	wk.srv.Metrics().Add("worker_snapshot_saves", 1)
	// The persisted snapshot now covers every epoch up to snap.Epoch:
	// retire the WAL segments it makes redundant.
	if wal := wk.wals[name]; wal != nil {
		if n, err := wal.TruncateThrough(snap.Epoch); err != nil {
			wk.logf("dserve: worker: truncate wal of %q: %v", name, err)
		} else if n > 0 {
			wk.srv.Metrics().Add("wal_segments_truncated", int64(n))
		}
	}
	return nil
}

// Snapshot aliases serve.Snapshot for readers of this package; the type
// lives in serve so the single-process tier can export/import without
// importing dserve.
type Snapshot = serve.Snapshot

// restoreLocal adopts any on-disk snapshot newer than (or equal to) the
// resident state, graph by graph — Start's first step, before any traffic:
// a restarted worker comes back with its last persisted fixed points
// instead of cold re-solving. Missing files and stale snapshots are
// skipped silently (stale ones count worker_snapshot_stale); decode or
// import failures are logged and skipped — a corrupt snapshot must not
// block startup.
func (wk *Worker) restoreLocal() {
	if wk.cfg.SnapshotDir == "" {
		return
	}
	for _, name := range wk.srv.GraphNames() {
		var snap Snapshot
		if err := atomicio.ReadJSON(wk.snapshotPath(name), &snap); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				wk.logf("dserve: worker: read snapshot of %q: %v", name, err)
			}
			continue
		}
		wk.persisted[name] = snap.Epoch
		_ = wk.adoptSnapshot(&snap, "local file") // logged and counted inside; never blocks startup
	}
}

// adoptSnapshot imports one snapshot, mapping the outcome onto metrics,
// and returns ImportSnapshot's error (serve.ErrSnapshotStale for a
// snapshot older than the resident state).
func (wk *Worker) adoptSnapshot(snap *Snapshot, source string) error {
	err := wk.srv.ImportSnapshot(snap)
	switch {
	case err == nil:
		wk.srv.Metrics().Add("worker_snapshot_restores", 1)
		wk.logf("dserve: worker: restored graph %q at epoch %d from %s (%d series)",
			snap.Graph, snap.Epoch, source, len(snap.Series))
	case errors.Is(err, serve.ErrSnapshotStale):
		wk.srv.Metrics().Add("worker_snapshot_stale", 1)
	default:
		wk.logf("dserve: worker: import snapshot of %q from %s: %v", snap.Graph, source, err)
	}
	return err
}

// register posts one registration (or heartbeat) to the router and
// returns the acknowledged peer map.
func (wk *Worker) register(ctx context.Context) (map[string][]string, error) {
	var ack RegisterResponse
	err := callJSON(ctx, wk.cfg.Client, http.MethodPost, wk.cfg.RouterURL+"/internal/register",
		RegisterRequest{URL: wk.cfg.Advertise, Graphs: wk.srv.GraphNames()}, &ack, 1<<20)
	if err != nil {
		wk.srv.Metrics().Add("worker_register_errors", 1)
		return nil, fmt.Errorf("register: %w", err)
	}
	return ack.Peers, nil
}

// catchUp runs the repair ladder for every graph against the first
// responsive registered peer — how a rejoining worker recovers the
// mutations it missed while down, without a cold re-solve.
func (wk *Worker) catchUp(ctx context.Context, peers map[string][]string) {
	for _, graph := range wk.srv.GraphNames() {
		for _, peer := range peers[graph] {
			_, err := wk.repairFrom(ctx, graph, peer)
			if err == nil {
				break // one responsive peer per graph is enough
			}
			wk.logf("dserve: worker: rejoin catch-up of %q from %s: %v", graph, peer, err)
		}
	}
}

// Start boots the worker in the order recovery needs: adopt the newest
// local snapshots, replay each WAL tail past them (the mutations
// acknowledged after the last snapshot tick), only then listen on addr
// with Handler, and finally launch the background loop — register with
// the router, catch up from a peer, heartbeat, persist. It returns the
// bound address. Every Start is paired with one Stop.
func (wk *Worker) Start(addr string) (net.Addr, error) {
	wk.restoreLocal()
	wk.replayWAL()
	bound, err := wk.srv.StartWith(addr, wk.Handler())
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	wk.stop, wk.done = cancel, make(chan struct{})
	go func() {
		defer close(wk.done)
		wk.run(ctx)
	}()
	return bound, nil
}

// Stop ends the background loop — its last act is a final snapshot persist,
// so the next Start restores the freshest state — and then drains the
// server's in-flight requests, bounded by ctx. After a failed Start it only
// drains.
func (wk *Worker) Stop(ctx context.Context) error {
	if wk.stop != nil {
		wk.stop()
		<-wk.done
	}
	return wk.srv.Shutdown(ctx)
}

// run drives the worker's background duties until ctx is canceled:
// register with the router (retrying until it answers), catch each graph
// up from a registered peer, then heartbeat and persist snapshots on
// their tickers, and persist once more on the way out.
func (wk *Worker) run(ctx context.Context) {
	if wk.cfg.RouterURL != "" {
		peers := wk.registerUntilAck(ctx)
		if ctx.Err() != nil {
			return
		}
		wk.catchUp(ctx, peers)
	}
	heartbeat := time.NewTicker(wk.cfg.Heartbeat)
	defer heartbeat.Stop()
	persist := time.NewTicker(wk.cfg.SnapshotEvery)
	defer persist.Stop()
	for {
		select {
		case <-ctx.Done():
			if err := wk.PersistSnapshots(); err != nil {
				wk.logf("dserve: worker: final snapshot persist: %v", err)
			}
			return
		case <-heartbeat.C:
			if wk.cfg.RouterURL != "" {
				if _, err := wk.register(ctx); err != nil && ctx.Err() == nil {
					wk.logf("dserve: worker: heartbeat: %v", err)
				}
			}
		case <-persist.C:
			wk.PersistSnapshots()
		}
	}
}

// registerUntilAck retries registration on the heartbeat period until the
// router acknowledges or ctx ends.
func (wk *Worker) registerUntilAck(ctx context.Context) map[string][]string {
	for {
		peers, err := wk.register(ctx)
		if err == nil {
			wk.logf("dserve: worker: registered %s with router %s", wk.cfg.Advertise, wk.cfg.RouterURL)
			return peers
		}
		if ctx.Err() != nil {
			return nil
		}
		wk.logf("dserve: worker: register with %s: %v (retrying)", wk.cfg.RouterURL, err)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(wk.cfg.Heartbeat):
		}
	}
}

func (wk *Worker) logf(format string, args ...any) {
	if wk.cfg.Logf != nil {
		wk.cfg.Logf(format, args...)
	}
}
