package loadgen

// Replica divergence check: after a load burst against the router, query
// every replica of the graph *directly* (bypassing the router) and verify
// they agree. Two layers of agreement are checked:
//
//  1. State: each replica's (epoch, state digest) from GET
//     /internal/digest must match, polled until they converge or the
//     wait budget expires — anti-entropy repairs are asynchronous, so a
//     just-partitioned replica is allowed a grace window to catch up.
//  2. Answers: the run's query, issued to each replica, must return the
//     same epoch and (within float tolerance) the same value sum —
//     replicas reach the fixed point along different paths (incremental
//     warm starts vs. snapshot restores vs. cold solves), so they agree
//     to the solver's convergence tolerance, not bit-exactly.
//
// The CI chaos-smoke stage runs this after a burst with an induced
// partition; any mismatch fails the build.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"strings"
	"time"

	"graphpulse/internal/serve"
)

// verifyPollInterval paces the digest convergence poll.
const verifyPollInterval = 200 * time.Millisecond

// sumTolerance is the relative tolerance when comparing per-replica value
// sums. Replicas reach the fixed point along different paths — cold
// solves, epoch-by-epoch warm restarts, snapshot restores — and each path
// stops at the solver's per-vertex convergence slack, which accumulates
// across the whole vertex set: percent-level sum differences between a
// cold-solved and a long warm-started replica are normal (observed ~2%
// on WG-class graphs after ~100 incremental epochs). Real divergence — a
// missed mutation — is caught exactly by the digest layer above, so this
// bound only needs to separate solver slack from grossly wrong answers.
const sumTolerance = 5e-2

// ReplicaState is one replica's view of the graph at verification time.
type ReplicaState struct {
	URL    string  `json:"url"`
	Epoch  uint64  `json:"epoch"`
	Digest string  `json:"digest"`
	Sum    float64 `json:"sum"`
	Mode   string  `json:"mode,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// VerifyReport is the outcome of one VerifyReplicas call.
type VerifyReport struct {
	Graph string `json:"graph"`
	// Converged reports whether every replica agreed on (epoch, digest)
	// before the wait budget expired.
	Converged bool           `json:"converged"`
	Waited    time.Duration  `json:"-"`
	Replicas  []ReplicaState `json:"replicas"`
	// Mismatches lists every disagreement found, one human-readable line
	// each; empty means the replica set is consistent.
	Mismatches []string `json:"mismatches,omitempty"`
}

// OK reports whether the replica set passed: digests converged and no
// per-replica answer disagreed.
func (r *VerifyReport) OK() bool {
	return r.Converged && len(r.Mismatches) == 0
}

// VerifyReplicas checks that every listed replica of cfg.Graph agrees. It
// polls each replica's /internal/digest until all (epoch, digest) pairs
// match or wait expires, then issues cfg's query directly to each replica
// and compares epochs and value sums. cfg.BaseURL is ignored; the replica
// URLs are contacted directly.
func VerifyReplicas(ctx context.Context, cfg Config, replicas []string, wait time.Duration) (*VerifyReport, error) {
	cfg = cfg.withDefaults()
	if len(replicas) == 0 {
		return nil, fmt.Errorf("loadgen: verify: no replicas given")
	}
	if wait <= 0 {
		wait = 10 * time.Second
	}
	rep := &VerifyReport{Graph: cfg.Graph}

	// Phase 1: poll digests until they converge or the budget expires.
	deadline := time.Now().Add(wait)
	start := time.Now()
	var states []ReplicaState
	for {
		states = fetchDigests(ctx, cfg, replicas)
		if digestsConverged(states) {
			rep.Converged = true
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(verifyPollInterval):
		}
	}
	rep.Waited = time.Since(start)
	for i := range states {
		if states[i].Err != "" {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: digest fetch failed: %s", states[i].URL, states[i].Err))
		}
	}
	if !rep.Converged {
		rep.Mismatches = append(rep.Mismatches, describeDivergence(states)...)
	}

	// Phase 2: ask each replica the run's query directly and compare.
	for i := range states {
		st := &states[i]
		if st.Err != "" {
			continue
		}
		qr, err := queryReplica(ctx, cfg, st.URL)
		if err != nil {
			st.Err = err.Error()
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: direct query failed: %v", st.URL, err))
			continue
		}
		st.Sum = qr.Sum
		st.Mode = qr.Mode
		if qr.Epoch != st.Epoch {
			// The replica moved between digest and query; not divergence,
			// but record the fresher epoch for the cross-replica compare.
			st.Epoch = qr.Epoch
		}
	}
	rep.Replicas = states
	rep.Mismatches = append(rep.Mismatches, compareAnswers(states)...)
	return rep, nil
}

// fetchDigests asks every replica for the graph's (epoch, digest) pair.
func fetchDigests(ctx context.Context, cfg Config, replicas []string) []ReplicaState {
	states := make([]ReplicaState, len(replicas))
	for i, u := range replicas {
		states[i] = ReplicaState{URL: u}
		info, err := fetchDigest(ctx, cfg, u)
		if err != nil {
			states[i].Err = err.Error()
			continue
		}
		states[i].Epoch = info.Epoch
		states[i].Digest = info.Digest
	}
	return states
}

// fetchDigest gets one replica's serve.DigestInfo for cfg.Graph.
func fetchDigest(ctx context.Context, cfg Config, replica string) (serve.DigestInfo, error) {
	u := strings.TrimRight(replica, "/") + "/internal/digest?graph=" + neturl.QueryEscape(cfg.Graph)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return serve.DigestInfo{}, err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return serve.DigestInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return serve.DigestInfo{}, fmt.Errorf("digest status %d", resp.StatusCode)
	}
	var info serve.DigestInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return serve.DigestInfo{}, err
	}
	return info, nil
}

// digestsConverged reports whether every replica's digest fetch succeeded
// and all of them agree on (epoch, digest). Any failed fetch means not
// converged, so an unreachable replica keeps the poll going until the wait
// budget expires; with no replicas at all it is false as well.
func digestsConverged(states []ReplicaState) bool {
	first := -1
	for i := range states {
		if states[i].Err != "" {
			return false
		}
		if first < 0 {
			first = i
			continue
		}
		if states[i].Epoch != states[first].Epoch || states[i].Digest != states[first].Digest {
			return false
		}
	}
	return first >= 0
}

// describeDivergence renders one mismatch line per replica disagreeing
// with the first reachable one.
func describeDivergence(states []ReplicaState) []string {
	first := -1
	for i := range states {
		if states[i].Err == "" {
			first = i
			break
		}
	}
	if first < 0 {
		return []string{"no replica reachable for digest comparison"}
	}
	var out []string
	ref := states[first]
	for _, st := range states {
		if st.Err != "" || st.URL == ref.URL {
			continue
		}
		if st.Epoch != ref.Epoch || st.Digest != ref.Digest {
			out = append(out, fmt.Sprintf("%s: digest diverged: epoch %d digest %s (want epoch %d digest %s from %s)",
				st.URL, st.Epoch, st.Digest, ref.Epoch, ref.Digest, ref.URL))
		}
	}
	return out
}

// queryReplica issues cfg's query straight at one replica.
func queryReplica(ctx context.Context, cfg Config, replica string) (*serve.QueryResponse, error) {
	root := cfg.Root
	body, err := json.Marshal(serve.QueryRequest{
		Graph:     cfg.Graph,
		Algorithm: cfg.Algorithm,
		Root:      &root,
		Top:       1,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(replica, "/")+"/v1/query", strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		return nil, err
	}
	return &qr, nil
}

// compareAnswers checks per-replica query answers against the first
// reachable replica: equal epochs, value sums within sumTolerance.
func compareAnswers(states []ReplicaState) []string {
	first := -1
	for i := range states {
		if states[i].Err == "" {
			first = i
			break
		}
	}
	if first < 0 {
		return nil
	}
	var out []string
	ref := states[first]
	for _, st := range states {
		if st.Err != "" || st.URL == ref.URL {
			continue
		}
		if st.Epoch != ref.Epoch {
			out = append(out, fmt.Sprintf("%s: answer epoch %d != %d from %s",
				st.URL, st.Epoch, ref.Epoch, ref.URL))
			continue
		}
		if !sumsClose(st.Sum, ref.Sum) {
			out = append(out, fmt.Sprintf("%s: answer sum %g != %g from %s",
				st.URL, st.Sum, ref.Sum, ref.URL))
		}
	}
	return out
}

// sumsClose compares two value sums with relative tolerance (absolute
// near zero). Non-finite sums must match exactly in kind.
func sumsClose(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= sumTolerance*scale
}
