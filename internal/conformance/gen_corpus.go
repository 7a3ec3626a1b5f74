//go:build ignore

// gen_corpus regenerates the seed corpora under testdata/fuzz/. Run from
// this directory:
//
//	go run gen_corpus.go
//
// Each seed decodes (via fuzzGraph in fuzz_test.go) to a deliberately shaped
// instance: chains and stars for deep/hub-heavy propagation, denser mixes
// for coalescing, and every algorithm selector so plain `go test` exercises
// all algorithms through the fuzz path too.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
)

// seed mirrors fuzz_test.go's layout: n-selector, algorithm selector, root
// selector, weighted flag, then (src, dst, weight) triples.
func seed(nSel, alg, root, weighted byte, triples ...byte) []byte {
	return append([]byte{nSel, alg, root, weighted}, triples...)
}

// binContainer assembles little-endian uint64 words for the malformed-input
// seeds of FuzzGraphIORoundTrip. The seeds are hostile headers of the
// retired "GPCS" binary container (magic 0x47504353); they stay in the
// corpus as binary garbage that ReadEdgeList and the graphpack decoder
// must reject without panicking or over-allocating.
func binContainer(words ...uint64) []byte {
	var out []byte
	for _, w := range words {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		out = append(out, b[:]...)
	}
	return out
}

func chainPayload(n byte) []byte {
	var p []byte
	for i := byte(0); i+1 < n; i++ {
		p = append(p, i, i+1, 37+i)
	}
	return p
}

func starPayload(n byte) []byte {
	var p []byte
	for i := byte(1); i < n; i++ {
		p = append(p, 0, i, 11+i)
	}
	return p
}

func densePayload(n byte, edges int) []byte {
	var p []byte
	x := byte(7)
	for i := 0; i < edges; i++ {
		// A small LCG keeps the payload deterministic without imports.
		x = x*31 + 17
		p = append(p, x%n, (x/3)%n, x)
	}
	return p
}

func main() {
	corpora := map[string][][]byte{}

	// Engine agreement: every algorithm selector on at least one shape, plus
	// shape variety on a couple of selectors.
	var ea [][]byte
	for alg := byte(0); alg < 8; alg++ {
		ea = append(ea, seed(14, alg, 0, 1, chainPayload(16)...))
	}
	ea = append(ea,
		seed(10, 0, 0, 1, starPayload(12)...),
		seed(30, 2, 5, 1, densePayload(32, 96)...),
		seed(6, 3, 1, 0, densePayload(8, 20)...),
		seed(0, 5, 0, 1, 0, 1, 50, 1, 0, 60), // 2-vertex multigraph with a cycle
	)
	corpora["FuzzEngineAgreement"] = ea

	// IO round-trip: weighted/unweighted, self loops, duplicates, isolated
	// trailing vertices (n larger than any endpoint), empty payloads —
	// followed by raw malformed binary headers for the loader-hardening
	// preamble (the target feeds the undecoded bytes to ReadEdgeList and
	// the graphpack decoder before the structured round-trip).
	corpora["FuzzGraphIORoundTrip"] = [][]byte{
		seed(14, 0, 0, 1, chainPayload(16)...),
		seed(14, 0, 0, 0, chainPayload(16)...),
		seed(40, 0, 0, 1, densePayload(42, 64)...),
		seed(8, 0, 0, 1, 3, 3, 99, 3, 3, 99, 0, 9, 1), // self loops + duplicate edges
		seed(60, 0, 0, 1, 0, 1, 50),                   // one edge, many isolated vertices
		seed(4, 0, 0, 0),                              // no edges at all
		binContainer(0x47504353, 0, 1<<62, 0),         // vertex count overflows int
		binContainer(0x47504353, 0, 2, 1<<62),         // edge count overflows int
		binContainer(0x47504353, 2, 1, 0, 0, 0),       // unknown flag bit
		binContainer(0x47504353, 0, 1<<20, 1<<20),     // huge counts, empty payload
		binContainer(0x47504353, 0, 2, 1, 0, 1, 0),    // non-monotone RowPtr (truncated Dst)
		binContainer(0xdeadbeef, 0, 1, 0),             // wrong magic
	}

	// Incremental insert: the incremental algorithm selectors (adsorption,
	// selector 1, is skipped by the target) on chains, stars, and dense
	// mixes so the split base/batch both stay interesting.
	corpora["FuzzIncrementalInsert"] = [][]byte{
		seed(14, 0, 0, 1, chainPayload(16)...),
		seed(14, 2, 0, 1, chainPayload(16)...),
		seed(10, 3, 0, 1, starPayload(12)...),
		seed(20, 5, 0, 1, densePayload(22, 60)...),
		seed(12, 6, 2, 1, densePayload(14, 40)...),
		seed(12, 7, 2, 1, densePayload(14, 40)...),
	}

	// Mutation sequences: FuzzMutateSequence's layout prepends a base-edge
	// count selector, then reads op quads (kind, a, b, c). The seeds cover
	// every incremental algorithm selector with interleaved inserts and
	// deletes (of inserted and of base edges, and of pairs that match no
	// edge, which burn no epoch).
	mutSeed := func(nSel, alg, root, weighted, kSel byte, rest ...byte) []byte {
		return append([]byte{nSel, alg, root, weighted, kSel}, rest...)
	}
	ops := func(quads ...byte) []byte { return quads }
	chain10 := chainPayload(10) // 9 triples on a 10-vertex chain (nSel 8)
	corpora["FuzzMutateSequence"] = [][]byte{
		// PageRank on a chain: insert a shortcut, delete it, miss a delete.
		mutSeed(8, 0, 0, 1, 9, append(chain10, ops(
			0, 0, 7, 40, // insert 0->7
			0, 7, 2, 30, // insert 7->2 (cycle)
			2, 0, 7, 0, // delete 0->7
			3, 0, 0, 5, // delete 0->0 (no such edge)
		)...)...),
		// SSSP: delete base chain edges so the cone re-routes, then rebuild.
		mutSeed(8, 2, 0, 1, 9, append(chain10, ops(
			2, 4, 5, 0, // delete base 4->5 (downstream unreachable)
			0, 4, 5, 90, // re-insert it, heavier
			0, 0, 9, 10, // cheap shortcut to the tail
			2, 0, 9, 0, // and take it away again
		)...)...),
		// BFS on a star: hub edge churn.
		mutSeed(8, 3, 0, 1, 9, append(starPayload(10), ops(
			2, 0, 3, 0,
			0, 1, 3, 20,
			3, 0, 0, 2, // delete 0->0 (no such edge)
		)...)...),
		// Connected components: merge and split label floods.
		mutSeed(10, 5, 0, 0, 6, append(densePayload(12, 6), ops(
			0, 11, 0, 50,
			2, 11, 0, 0,
			0, 1, 11, 50,
			3, 0, 0, 1, // delete 0->0 (no such edge)
		)...)...),
		// Reach: delete the only bridge (the fabricated-reachability trap).
		mutSeed(4, 4, 0, 0, 2, 0, 1, 10, 1, 2, 10, // 0->1->2
			2, 0, 1, 0, // delete the bridge
			0, 0, 1, 10, // restore it
			3, 0, 0, 1), // delete 0->0 (no such edge)
		// Empty base, insert-only growth.
		mutSeed(6, 2, 0, 1, 0,
			0, 0, 1, 30,
			0, 1, 2, 30,
			0, 2, 3, 30),
	}

	for target, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%s: %d seeds\n", target, len(seeds))
	}
}
