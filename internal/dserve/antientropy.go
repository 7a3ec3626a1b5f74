package dserve

import (
	"context"
	"net/http"
	"net/url"
	"time"

	"graphpulse/internal/serve"
)

// The anti-entropy loop: every AntiEntropyInterval the router fetches a
// per-graph (epoch, state digest) pair from each healthy replica
// (GET /internal/digest on the worker), flags divergence in metrics, and
// asks each laggard to repair itself from the most advanced peer
// (POST /internal/repair). The worker-side repair first tries the cheap
// path — fetch the missing WAL suffix from the donor and replay it — and
// falls back to a full snapshot transfer when the donor's log no longer
// covers the gap. Either way a replica that missed a write converges back
// to digest equality without a restart and without a cold re-solve.

// antiEntropyLoop drives periodic divergence checks until shutdown.
func (rt *Router) antiEntropyLoop() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.AntiEntropyInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-tick.C:
		}
		for _, g := range rt.members.hostedGraphs() {
			rt.antiEntropyCheck(g)
		}
	}
}

// replicaDigest pairs a replica URL with its reported digest.
type replicaDigest struct {
	url  string
	info serve.DigestInfo
}

// antiEntropyCheck compares one graph's digests across its healthy
// replicas and triggers repair of every laggard. Divergence means any
// replica's (epoch, digest) differs from the most advanced replica's;
// the most advanced is the highest epoch, ties broken by placement order —
// deterministic, so concurrent repairs all pull from the same donor.
func (rt *Router) antiEntropyCheck(graphName string) {
	_, healthy := rt.members.replicas(graphName)
	if len(healthy) < 2 {
		return
	}
	rt.metrics.Add("antientropy_checks", 1)
	digs := make([]replicaDigest, 0, len(healthy))
	for _, u := range healthy {
		info, err := rt.fetchDigest(u, graphName)
		if err != nil {
			rt.metrics.Add("antientropy_errors", 1)
			rt.logf("dserve: router: anti-entropy digest of %q from %s: %v", graphName, u, err)
			continue
		}
		digs = append(digs, replicaDigest{url: u, info: info})
	}
	if len(digs) < 2 {
		return
	}
	best := digs[0]
	for _, d := range digs[1:] {
		if d.info.Epoch > best.info.Epoch {
			best = d
		}
	}
	diverged := false
	for _, d := range digs {
		if d.info.Epoch == best.info.Epoch && d.info.Digest == best.info.Digest {
			continue
		}
		if !diverged {
			diverged = true
			rt.metrics.Add("antientropy_divergence", 1)
		}
		// The laggard may be shipping a whole snapshot, so only the client's
		// own timeout and the router's lifetime bound the repair call.
		err := callJSON(rt.ctx, rt.cfg.Client, http.MethodPost, d.url+"/internal/repair",
			RepairRequest{Graph: graphName, Peer: best.url}, nil, 4096)
		if err != nil {
			rt.metrics.Add("antientropy_errors", 1)
			rt.logf("dserve: router: anti-entropy repair of %q on %s from %s: %v",
				graphName, d.url, best.url, err)
			continue
		}
		rt.metrics.Add("antientropy_repairs", 1)
		rt.logf("dserve: router: anti-entropy healed %q on %s from %s (was epoch %d, donor %d)",
			graphName, d.url, best.url, d.info.Epoch, best.info.Epoch)
	}
}

// fetchDigest asks one worker for one graph's (epoch, digest) pair.
func (rt *Router) fetchDigest(worker, graphName string) (info serve.DigestInfo, err error) {
	ctx, cancel := context.WithTimeout(rt.ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	err = callJSON(ctx, rt.cfg.Client, http.MethodGet,
		worker+"/internal/digest?graph="+url.QueryEscape(graphName), nil, &info, 1<<20)
	return info, err
}
