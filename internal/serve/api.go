package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// QueryRequest is the /v1/query body: which algorithm to run over which
// resident graph, and what slice of the answer to return. Unknown fields,
// such as the "engine" older clients send, are ignored.
type QueryRequest struct {
	// Graph names a resident graph.
	Graph string `json:"graph"`
	// Algorithm selects the computation by its algorithms.Names wire name.
	Algorithm string `json:"algorithm"`
	// Root is the source vertex for rooted algorithms (default 0).
	Root *uint32 `json:"root,omitempty"`
	// Alpha and Threshold override pr/ads parameters (defaults 0.85/1e-4
	// for pr, 0.8/1e-4 for ads).
	Alpha     *float64 `json:"alpha,omitempty"`
	Threshold *float64 `json:"threshold,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped by Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Top asks for the N highest finite values, ties broken by lower
	// vertex id: 0 (or absent) means 10, a negative value omits the list,
	// and anything above 1000 is clamped to 1000.
	Top int `json:"top,omitempty"`
	// Vertices asks for the values of specific vertices, answered in
	// request order; ids beyond the graph's vertex count are dropped.
	Vertices []uint32 `json:"vertices,omitempty"`
}

// VertexValue is one (vertex, converged value) pair. Path-style
// algorithms legitimately converge to ±Inf (unreachable vertices), which
// JSON numbers cannot carry, so the codec maps non-finite values to the
// strings "Infinity", "-Infinity", and "NaN".
type VertexValue struct {
	Vertex uint32
	Value  float64
}

// MarshalJSON implements json.Marshaler; see the type comment.
func (v VertexValue) MarshalJSON() ([]byte, error) {
	return appendVertexValue(nil, v), nil
}

// appendVertexValue appends v's wire form, {"vertex":N,"value":X}, to b.
func appendVertexValue(b []byte, v VertexValue) []byte {
	b = append(b, `{"vertex":`...)
	b = strconv.AppendUint(b, uint64(v.Vertex), 10)
	b = append(b, `,"value":`...)
	switch {
	case math.IsInf(v.Value, 1):
		b = append(b, `"Infinity"`...)
	case math.IsInf(v.Value, -1):
		b = append(b, `"-Infinity"`...)
	case math.IsNaN(v.Value):
		b = append(b, `"NaN"`...)
	default:
		b = strconv.AppendFloat(b, v.Value, 'g', -1, 64)
	}
	return append(b, '}')
}

// UnmarshalJSON implements json.Unmarshaler; see the type comment.
func (v *VertexValue) UnmarshalJSON(data []byte) error {
	var aux struct {
		Vertex uint32          `json:"vertex"`
		Value  json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	v.Vertex = aux.Vertex
	var s string
	if json.Unmarshal(aux.Value, &s) == nil {
		switch s {
		case "Infinity":
			v.Value = math.Inf(1)
		case "-Infinity":
			v.Value = math.Inf(-1)
		case "NaN":
			v.Value = math.NaN()
		default:
			return fmt.Errorf("serve: bad vertex value %q", s)
		}
		return nil
	}
	return json.Unmarshal(aux.Value, &v.Value)
}

// QueryResponse is the /v1/query answer. Sum adds every finite value; Top
// and Values are the projections QueryRequest.Top and
// QueryRequest.Vertices ask for, each absent when empty.
type QueryResponse struct {
	Graph     string `json:"graph"`
	Epoch     uint64 `json:"epoch"`
	Algorithm string `json:"algorithm"`
	// Engine is always "solve": queries run on one solver, and the field
	// stays so answers keep the bytes existing clients parse.
	Engine string `json:"engine"`
	// Cached reports whether the answer came straight from the result
	// cache. Mode says how the values were produced: "cache", "cold"
	// (from-scratch solve), "warm" (warm-started from a prior epoch's
	// fixed point after insert-only mutations), or "cone" (selective
	// re-initialization of the deletion dependency cone).
	Cached bool   `json:"cached"`
	Mode   string `json:"mode"`
	// Coalesced reports that this request joined an identical in-flight
	// computation instead of starting its own.
	Coalesced   bool          `json:"coalesced,omitempty"`
	NumVertices int           `json:"num_vertices"`
	NumEdges    int           `json:"num_edges"`
	Activations int64         `json:"activations"`
	ComputeSecs float64       `json:"compute_seconds"`
	Sum         float64       `json:"sum"`
	Top         []VertexValue `json:"top,omitempty"`
	Values      []VertexValue `json:"values,omitempty"`
}

// MarshalJSON implements json.Marshaler with the encoder the handler
// itself writes responses with, so every producer of a QueryResponse emits
// the same bytes.
func (r QueryResponse) MarshalJSON() ([]byte, error) {
	// Sized so a typical answer is appended without regrowing: ~48 bytes a
	// pair, 256 for the scalar fields.
	return appendQueryResponse(make([]byte, 0, 256+48*(len(r.Top)+len(r.Values))), &r)
}

// appendQueryResponse appends r's wire form to b: the fields in
// declaration order, `omitempty` ones skipped when empty, exactly what
// encoding/json produces from the struct tags (a differential test holds
// the two together) but without reflection or a per-element allocation.
// Like encoding/json it refuses a non-finite compute_seconds or sum.
func appendQueryResponse(b []byte, r *QueryResponse) ([]byte, error) {
	b = appendJSONString(append(b, `{"graph":`...), r.Graph)
	b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	b = appendJSONString(append(b, `,"algorithm":`...), r.Algorithm)
	b = appendJSONString(append(b, `,"engine":`...), r.Engine)
	b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
	b = appendJSONString(append(b, `,"mode":`...), r.Mode)
	if r.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	b = strconv.AppendInt(append(b, `,"num_vertices":`...), int64(r.NumVertices), 10)
	b = strconv.AppendInt(append(b, `,"num_edges":`...), int64(r.NumEdges), 10)
	b = strconv.AppendInt(append(b, `,"activations":`...), r.Activations, 10)
	var err error
	if b, err = appendJSONFloat(append(b, `,"compute_seconds":`...), r.ComputeSecs); err != nil {
		return nil, err
	}
	if b, err = appendJSONFloat(append(b, `,"sum":`...), r.Sum); err != nil {
		return nil, err
	}
	b = appendVertexValues(b, `,"top":[`, r.Top)
	b = appendVertexValues(b, `,"values":[`, r.Values)
	return append(b, '}'), nil
}

// appendVertexValues appends one `omitempty` VertexValue array, opened by
// the given `,"name":[` prefix.
func appendVertexValues(b []byte, open string, vs []VertexValue) []byte {
	if len(vs) == 0 {
		return b
	}
	b = append(b, open...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVertexValue(b, v)
	}
	return append(b, ']')
}

// appendJSONString appends s as a JSON string. Names made of plain
// printable ASCII — every engine, mode and algorithm key, and any sane
// graph name — are copied between quotes; anything encoding/json would
// escape is handed to encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string never fails to marshal
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f the way encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form only below 1e-6 or
// from 1e21 up, the exponent without a leading zero.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("serve: unsupported JSON number %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-09 → e-9
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// EdgeJSON is one directed edge in a mutation batch
// ({"src","dst","weight"}).
type EdgeJSON = graph.Edge

// MutateRequest is the /v1/mutate body: a batch of edges to insert into
// and/or delete from a resident graph, applied as one epoch (inserts
// first, then deletes — so a batch inserting and deleting the same edge
// nets to a delete). Insertions are deduplicated within the batch; each
// delete removes every live edge with the same (src, dst), weight
// ignored. The vertex set is fixed; edges referencing vertices beyond it
// are rejected whole-batch.
type MutateRequest struct {
	Graph   string     `json:"graph"`
	Edges   []EdgeJSON `json:"edges,omitempty"`
	Deletes []EdgeJSON `json:"deletes,omitempty"`
}

// MutateResponse reports the post-mutation graph version and the
// per-edge accounting: Added edges inserted (after in-batch
// deduplication), Skipped duplicates dropped, Deleted live edges
// removed, and Missed delete ops that matched nothing.
type MutateResponse struct {
	Graph       string `json:"graph"`
	Epoch       uint64 `json:"epoch"`
	Added       int    `json:"added"`
	Skipped     int    `json:"skipped"`
	Deleted     int    `json:"deleted"`
	Missed      int    `json:"missed"`
	NumVertices int    `json:"num_vertices"`
	NumEdges    int    `json:"num_edges"`
}

// GraphInfo is one /v1/graphs inventory row.
type GraphInfo struct {
	Name        string `json:"name"`
	Epoch       uint64 `json:"epoch"`
	NumVertices int    `json:"num_vertices"`
	NumEdges    int    `json:"num_edges"`
	Weighted    bool   `json:"weighted"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// makeAlgorithm builds the algorithm a request names (algorithms.ByName
// owns the vocabulary), applies the request's alpha/threshold overrides,
// and returns its canonical cache key (parameters normalized, so
// equivalent requests share cache entries and coalesce).
func makeAlgorithm(req *QueryRequest) (algorithms.Algorithm, string, error) {
	root := graph.VertexID(0)
	if req.Root != nil {
		root = graph.VertexID(*req.Root)
	}
	alg, err := algorithms.ByName(req.Algorithm, root)
	if err != nil {
		return nil, "", err
	}
	var alpha, threshold *float64
	switch a := alg.(type) {
	case *algorithms.PageRankDelta:
		alpha, threshold = &a.Alpha, &a.Threshold
	case *algorithms.Adsorption:
		alpha, threshold = &a.Alpha, &a.Threshold
	default:
		if algorithms.Rooted(req.Algorithm) {
			return alg, req.Algorithm + "(root=" + strconv.FormatUint(uint64(root), 10) + ")", nil
		}
		return alg, req.Algorithm + "()", nil
	}
	if req.Alpha != nil {
		*alpha = *req.Alpha
	}
	if req.Threshold != nil {
		*threshold = *req.Threshold
	}
	if *alpha <= 0 || *alpha >= 1 || *threshold <= 0 {
		return nil, "", fmt.Errorf("%s needs 0<alpha<1 and threshold>0", req.Algorithm)
	}
	// name(alpha=%g,threshold=%g), appended so a cache hit boxes nothing.
	key := append(make([]byte, 0, 64), req.Algorithm...)
	key = strconv.AppendFloat(append(key, "(alpha="...), *alpha, 'g', -1, 64)
	key = strconv.AppendFloat(append(key, ",threshold="...), *threshold, 'g', -1, 64)
	return alg, string(append(key, ')')), nil
}
