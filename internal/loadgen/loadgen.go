// Package loadgen drives a running serve instance with a closed-loop
// query/mutate/delete/stream mix and tallies each request kind's outcomes —
// the burst behind the CI smoke stages' error and availability gates — and
// checks afterwards that the replicas of a graph agree (verify.go).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	neturl "net/url"
	"sync"
	"time"

	"graphpulse/internal/serve"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Graph, Algorithm and Root form the query sent on every request.
	Graph     string
	Algorithm string
	Root      uint32
	// Concurrency is the number of client workers, each issuing requests
	// back to back (default 8).
	Concurrency int
	// Duration is how long to generate load (default 5s).
	Duration time.Duration
	// MutateEvery makes every Nth request a mutation batch instead of a
	// query (0 = queries only).
	MutateEvery int
	// MutateEdges is the batch size of each mutation (default 16).
	MutateEdges int
	// DeleteEvery makes every Nth request a deletion batch drawing from
	// the edges this run previously inserted (0 = never). Takes precedence
	// over MutateEvery on sequence numbers both match.
	DeleteEvery int
	// StreamEvery makes every Nth request a bulk NDJSON /v1/stream post of
	// StreamOps mixed insert/delete ops (0 = never). Takes precedence over
	// DeleteEvery and MutateEvery.
	StreamEvery int
	// StreamOps is the op count of each stream request (default 64).
	StreamOps int
	// Seed makes mutation edge choice deterministic.
	Seed int64
	// Client overrides the HTTP client (default: 10s timeout).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.MutateEdges <= 0 {
		c.MutateEdges = 16
	}
	if c.StreamOps <= 0 {
		c.StreamOps = 64
	}
	if c.Algorithm == "" {
		c.Algorithm = "pr"
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return c
}

// Stats accumulates per-kind outcomes of one run.
type Stats struct {
	Query  KindStats
	Mutate KindStats
	Delete KindStats
	Stream KindStats
}

// KindStats is the outcome tally for one request kind.
type KindStats struct {
	Count     int64
	Errors    int64
	Rejected  int64 // 429 admission-control rejections
	Deadlines int64 // 504 deadline expiries
}

// Run drives the configured load until Duration elapses or ctx is
// canceled, and returns the collected stats.
func Run(ctx context.Context, cfg Config) (*Stats, error) {
	cfg = cfg.withDefaults()
	info, err := graphInfo(cfg)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var (
		reqSeq  int64
		seqMu   sync.Mutex
		wg      sync.WaitGroup
		workers = make([]workerStats, cfg.Concurrency)
	)
	nextSeq := func() int64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		reqSeq++
		return reqSeq
	}
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			ws := &workers[id]
			for ctx.Err() == nil {
				seq := nextSeq()
				switch {
				case cfg.StreamEvery > 0 && seq%int64(cfg.StreamEvery) == 0:
					doStream(cfg, info, rng, ws)
				case cfg.DeleteEvery > 0 && seq%int64(cfg.DeleteEvery) == 0:
					doDelete(cfg, info, rng, ws)
				case cfg.MutateEvery > 0 && seq%int64(cfg.MutateEvery) == 0:
					doMutate(cfg, info, rng, ws)
				default:
					doQuery(cfg, ws)
				}
			}
		}(i)
	}
	wg.Wait()
	st := &Stats{}
	for i := range workers {
		st.Query.merge(&workers[i].query)
		st.Mutate.merge(&workers[i].mutate)
		st.Delete.merge(&workers[i].del)
		st.Stream.merge(&workers[i].stream)
	}
	return st, nil
}

// ringCap bounds each worker's memory of its own inserted edges, the
// pool delete traffic draws from.
const ringCap = 1024

type workerStats struct {
	query  KindStats
	mutate KindStats
	del    KindStats
	stream KindStats
	// inserted is a bounded ring of edges this worker has inserted and not
	// yet targeted for deletion, so deletes mostly hit live edges.
	inserted []serve.EdgeJSON
}

// remember pushes freshly inserted edges into the ring, evicting the
// oldest past ringCap.
func (ws *workerStats) remember(edges ...serve.EdgeJSON) {
	ws.inserted = append(ws.inserted, edges...)
	if len(ws.inserted) > ringCap {
		ws.inserted = ws.inserted[len(ws.inserted)-ringCap:]
	}
}

// takeInserted pops up to n remembered edges (oldest first); when the
// ring is dry it synthesizes random pairs, which the server legitimately
// reports as missed deletes.
func (ws *workerStats) takeInserted(n, numVertices int, rng *rand.Rand) []serve.EdgeJSON {
	if n > len(ws.inserted) {
		n = len(ws.inserted)
	}
	out := append([]serve.EdgeJSON(nil), ws.inserted[:n]...)
	ws.inserted = ws.inserted[n:]
	for len(out) == 0 {
		out = append(out, serve.EdgeJSON{
			Src: uint32(rng.Intn(numVertices)), Dst: uint32(rng.Intn(numVertices)),
		})
	}
	return out
}

func (k *KindStats) merge(o *KindStats) {
	k.Count += o.Count
	k.Errors += o.Errors
	k.Rejected += o.Rejected
	k.Deadlines += o.Deadlines
}

func (k *KindStats) record(code int, err error) {
	k.Count++
	switch {
	case err != nil:
		k.Errors++
	case code == http.StatusTooManyRequests:
		k.Rejected++
	case code == http.StatusGatewayTimeout:
		k.Deadlines++
	case code != http.StatusOK:
		k.Errors++
	}
}

func graphInfo(cfg Config) (serve.GraphInfo, error) {
	resp, err := cfg.Client.Get(cfg.BaseURL + "/v1/graphs")
	if err != nil {
		return serve.GraphInfo{}, fmt.Errorf("loadgen: list graphs: %w", err)
	}
	defer resp.Body.Close()
	var infos []serve.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return serve.GraphInfo{}, fmt.Errorf("loadgen: parse graph list: %w", err)
	}
	for _, in := range infos {
		if in.Name == cfg.Graph {
			return in, nil
		}
	}
	return serve.GraphInfo{}, fmt.Errorf("loadgen: graph %q not resident (have %d graphs)", cfg.Graph, len(infos))
}

func post(cfg Config, path string, body any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := cfg.Client.Post(cfg.BaseURL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, err
}

func doQuery(cfg Config, ws *workerStats) {
	root := cfg.Root
	code, err := post(cfg, "/v1/query", serve.QueryRequest{
		Graph:     cfg.Graph,
		Algorithm: cfg.Algorithm,
		Root:      &root,
		Top:       1,
	})
	ws.query.record(code, err)
}

func doMutate(cfg Config, info serve.GraphInfo, rng *rand.Rand, ws *workerStats) {
	n := info.NumVertices
	edges := make([]serve.EdgeJSON, cfg.MutateEdges)
	for i := range edges {
		edges[i] = serve.EdgeJSON{
			Src:    uint32(rng.Intn(n)),
			Dst:    uint32(rng.Intn(n)),
			Weight: float32(rng.Float64()*0.9 + 0.1),
		}
	}
	code, err := post(cfg, "/v1/mutate", serve.MutateRequest{Graph: cfg.Graph, Edges: edges})
	ws.mutate.record(code, err)
	if err == nil && code == http.StatusOK {
		ws.remember(edges...)
	}
}

func doDelete(cfg Config, info serve.GraphInfo, rng *rand.Rand, ws *workerStats) {
	dels := ws.takeInserted(cfg.MutateEdges, info.NumVertices, rng)
	code, err := post(cfg, "/v1/mutate", serve.MutateRequest{Graph: cfg.Graph, Deletes: dels})
	ws.del.record(code, err)
}

// doStream posts one NDJSON bulk-ingestion request: ~3/4 inserts, ~1/4
// deletes of edges this worker streamed or mutated in earlier requests.
func doStream(cfg Config, info serve.GraphInfo, rng *rand.Rand, ws *workerStats) {
	n := info.NumVertices
	var body bytes.Buffer
	var fresh []serve.EdgeJSON
	for i := 0; i < cfg.StreamOps; i++ {
		if rng.Intn(4) == 0 && len(ws.inserted) > 0 {
			d := ws.takeInserted(1, n, rng)[0]
			fmt.Fprintf(&body, `{"op":"delete","src":%d,"dst":%d}`+"\n", d.Src, d.Dst)
			continue
		}
		e := serve.EdgeJSON{
			Src:    uint32(rng.Intn(n)),
			Dst:    uint32(rng.Intn(n)),
			Weight: float32(rng.Float64()*0.9 + 0.1),
		}
		fmt.Fprintf(&body, `{"src":%d,"dst":%d,"weight":%g}`+"\n", e.Src, e.Dst, e.Weight)
		fresh = append(fresh, e)
	}
	resp, err := cfg.Client.Post(
		cfg.BaseURL+"/v1/stream?graph="+neturl.QueryEscape(cfg.Graph),
		"application/x-ndjson", &body)
	code := 0
	if err == nil {
		code = resp.StatusCode
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}
	ws.stream.record(code, err)
	if err == nil && code == http.StatusOK {
		ws.remember(fresh...)
	}
}

// kindNames labels the entries of Stats.kinds.
var kindNames = [...]string{"query", "mutate", "delete", "stream"}

// kinds lists the per-kind tallies in report order.
func (st *Stats) kinds() [4]*KindStats {
	return [4]*KindStats{&st.Query, &st.Mutate, &st.Delete, &st.Stream}
}

// TotalErrors sums hard failures (transport errors and unexpected status
// codes; 429 rejections and 504 deadlines are counted separately) across
// every request kind — the CI smoke gate's no-5xx assertion.
func (st *Stats) TotalErrors() int64 {
	var n int64
	for _, k := range st.kinds() {
		n += k.Errors
	}
	return n
}

// Availability is the fraction of requests that did not hard-fail,
// across every kind (1.0 for an empty run). Rejections (429) and
// deadline expiries (504) count as available — they are the server
// answering, not the tier losing the request. The CI smoke stages gate
// on this, dserve-smoke while killing a worker mid-burst.
func (st *Stats) Availability() float64 {
	var count, errs int64
	for _, k := range st.kinds() {
		count += k.Count
		errs += k.Errors
	}
	if count == 0 {
		return 1.0
	}
	return float64(count-errs) / float64(count)
}

// WriteText renders one line per request kind that saw traffic: its
// count, hard errors, 429 rejections and 504 deadlines.
func (st *Stats) WriteText(w io.Writer) {
	for i, k := range st.kinds() {
		if k.Count > 0 {
			fmt.Fprintf(w, "%-6s  %6d reqs  err %d  429 %d  504 %d\n", kindNames[i], k.Count, k.Errors, k.Rejected, k.Deadlines)
		}
	}
}
