package algorithms

import (
	"fmt"
	"strings"

	"graphpulse/internal/graph"
)

// table is the one mapping from an algorithm's wire/CLI name to its
// constructor. /v1/query's algorithm field, graphpulse's -alg and bench's
// -algs all resolve through ByName, and every help or error string that
// enumerates the vocabulary is rendered from it by NamesList — adding an
// algorithm is one row here.
var table = []struct {
	name string
	// rooted reports that the constructor reads root.
	rooted bool
	new    func(root graph.VertexID) Algorithm
}{
	{"pr", false, func(graph.VertexID) Algorithm { return NewPageRankDelta() }},
	{"ads", false, func(graph.VertexID) Algorithm { return NewAdsorption() }},
	{"sssp", true, func(r graph.VertexID) Algorithm { return NewSSSP(r) }},
	{"bfs", true, func(r graph.VertexID) Algorithm { return NewBFS(r) }},
	{"reach", true, func(r graph.VertexID) Algorithm { return NewReach(r) }},
	{"cc", false, func(graph.VertexID) Algorithm { return NewConnectedComponents() }},
	{"sswp", true, func(r graph.VertexID) Algorithm { return NewSSWP(r) }},
	{"relpath", true, func(r graph.VertexID) Algorithm { return NewReliablePath(r) }},
}

// Names returns every algorithm's wire name: the five Table II
// applications and the extensions, in table order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// NamesList renders the vocabulary for flag docs and errors
// (names joined by "|").
func NamesList() string { return strings.Join(Names(), "|") }

// ByName builds a fresh instance of the named algorithm with its default
// parameters, rooted at root when the algorithm has a source vertex. The
// caller that knows the graph checks root against its vertex count.
func ByName(name string, root graph.VertexID) (Algorithm, error) {
	for _, e := range table {
		if e.name == name {
			return e.new(root), nil
		}
	}
	if name == "" {
		return nil, fmt.Errorf("missing algorithm (want %s)", NamesList())
	}
	return nil, fmt.Errorf("unknown algorithm %q (want %s)", name, NamesList())
}

// Rooted reports whether the named algorithm takes a source vertex.
func Rooted(name string) bool {
	for _, e := range table {
		if e.name == name {
			return e.rooted
		}
	}
	return false
}
