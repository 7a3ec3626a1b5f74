// Package dserve is the distributed serving tier: a stateless router in
// front of N serve.Server worker processes, scaling the single-process
// analytics service (internal/serve) horizontally — the software analogue
// of the paper's multi-chip scale-out (Section IV-F option b), which the
// paper leaves unexplored and the simulator does not model.
//
// Topology and responsibilities:
//
//   - The Router places each graph on a replica set of
//     Config.Replication workers by rendezvous (highest-random-weight)
//     hashing: every worker hosting the graph gets a seedless score for
//     the pair and the highest scores own it, so a worker joining or
//     leaving moves only the graphs it ranks into or out of. Reads
//     (/v1/query) rotate across healthy replicas and retry on the next
//     replica after an upstream failure, within a retry budget; writes
//     (/v1/mutate) fan out to every replica at once, serialized per graph
//     so all replicas apply mutation epochs in the same order.
//   - Health is probed (GET /healthz) on a fixed interval. A worker
//     failing Config.FailAfter consecutive probes (or request-path
//     attempts) is ejected and re-probed on an exponential backoff; a
//     succeeding probe — or an inbound registration heartbeat — readmits
//     it immediately.
//   - The Worker wraps a serve.Server with the distributed-tier duties:
//     it registers with the router (and re-registers on a heartbeat, so a
//     restarted router relearns the fleet from its workers — the router
//     holds no durable state), periodically persists serve.Snapshot
//     images via internal/atomicio, serves them to peers on
//     GET /internal/snapshot, and recovers by one ladder instead of cold
//     re-solving: local snapshot, local WAL tail, then — from a peer, on
//     rejoin or when the router's anti-entropy loop asks — WAL suffix,
//     and a peer snapshot only when the suffix cannot close the gap.
//
// The router speaks the same /v1/* API as a single worker, so any serve
// client works against it unchanged. OPERATIONS.md is the
// deployment runbook; DESIGN.md ("Distributed serving") maps this design
// onto the paper's multi-chip scheme and states where the analogy breaks.
package dserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"graphpulse/internal/stream"
)

// callJSON is the one peer call of the tier (router→worker, worker→router,
// worker→worker; the router's client-facing proxy path has its own
// forward): send method url with in as a JSON body (nil = no body), and
// decode at most respCap bytes of a 200 answer into out (nil = discard
// it). Any other status is an error carrying the trimmed response body.
func callJSON(ctx context.Context, client *http.Client, method, url string, in, out any, respCap int64) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best-effort detail for the error text
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, respCap))
		return err
	}
	return json.NewDecoder(io.LimitReader(resp.Body, respCap)).Decode(out)
}

// RegisterRequest is the body of POST /internal/register: a worker
// announcing (or re-announcing, as a heartbeat) its advertised base URL
// and the graphs it hosts.
type RegisterRequest struct {
	URL    string   `json:"url"`
	Graphs []string `json:"graphs"`
}

// RegisterResponse acknowledges a registration. Peers maps each of the
// worker's graphs to the *other* currently-live workers hosting it, in
// placement order — the donors a rejoining worker catches up from, the
// graph's other replicas first.
type RegisterResponse struct {
	Peers map[string][]string `json:"peers,omitempty"`
}

// WorkerInfo is one row of GET /internal/workers: the router's live view
// of a worker.
type WorkerInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Draining marks a worker cordoned via POST /internal/drain: it keeps
	// its registration but receives no new traffic.
	Draining bool `json:"draining,omitempty"`
	// Fails is the current consecutive probe/request failure count.
	Fails int `json:"fails,omitempty"`
	// Graphs is the hosted graph set from registration; empty means the
	// worker was configured as a static seed and is assumed to host
	// every graph until it registers.
	Graphs  []string `json:"graphs,omitempty"`
	LastErr string   `json:"last_err,omitempty"`
}

// DrainRequest is the body of POST /internal/drain: cordon (or, with
// Undrain, readmit) the worker with the given advertised URL.
type DrainRequest struct {
	URL     string `json:"url"`
	Undrain bool   `json:"undrain,omitempty"`
}

// WALTailResponse is the body of a worker's GET /internal/wal answer:
// the records after ?after=, plus the (epoch, digest) pair the donor was
// at when it shipped them — the repairing replica compares against it to
// decide whether the replay actually converged.
type WALTailResponse struct {
	Graph   string          `json:"graph"`
	Epoch   uint64          `json:"epoch"`
	Digest  string          `json:"digest"`
	Records []stream.Change `json:"records"`
}

// RepairRequest is the body of POST /internal/repair: the router asking
// a lagging worker to catch graph up from the named donor peer — WAL
// suffix replay when the donor's log covers the gap, full snapshot
// transfer otherwise.
type RepairRequest struct {
	Graph string `json:"graph"`
	Peer  string `json:"peer"`
}

// RepairResponse reports how a repair converged: Mode "wal" (suffix
// replayed; Replayed 0 when the replica was already at or ahead of the
// donor), "snapshot" (full transfer), and the epoch reached.
type RepairResponse struct {
	Graph    string `json:"graph"`
	Mode     string `json:"mode"`
	Epoch    uint64 `json:"epoch"`
	Replayed int    `json:"replayed,omitempty"`
}
