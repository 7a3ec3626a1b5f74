package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("src dst [weight]"
// per line, '#' or '%' comments) such as the SNAP text format the paper's
// datasets ship in. Vertex count is inferred as 1 + max id unless a larger
// hint is given.
//
// Seekable sources (files, bytes.Reader) get a cheap first pass that
// counts data lines and tracks the max vertex id, so the edge slice is
// allocated once at its final size instead of growing through append
// doublings — on a TW-class text load the growth copies dominate the
// allocator profile. Unseekable streams parse in one pass as before.
func ReadEdgeList(r io.Reader, vertexHint int) (*CSR, error) {
	var edges []Edge
	if s, ok := r.(io.Seeker); ok {
		count, maxSeen, err := prescanEdgeList(r, s)
		if err != nil {
			return nil, err
		}
		if count > 0 {
			edges = make([]Edge, 0, count)
		}
		if maxSeen+1 > vertexHint {
			vertexHint = maxSeen + 1
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	weighted := false
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %d", line, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %v", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %v", line, err)
		}
		if src > maxVertexID || dst > maxVertexID {
			return nil, fmt.Errorf("graph: line %d: vertex id %d exceeds format limit %d",
				line, max(src, dst), uint64(maxVertexID))
		}
		e := Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: 1}
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", line, err)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: non-finite weight %v", line, w)
			}
			e.Weight = float32(w)
			weighted = true
		}
		if int(e.Src) > maxID {
			maxID = int(e.Src)
		}
		if int(e.Dst) > maxID {
			maxID = int(e.Dst)
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	n := maxID + 1
	if vertexHint > n {
		n = vertexHint
	}
	return FromEdges(n, edges, weighted)
}

// prescanEdgeList scans a seekable edge-list source once, counting data
// lines and the largest leading vertex id it can cheaply extract, then
// rewinds to the starting offset so the parse pass re-reads from the same
// position. Malformed lines are left for the parse pass to diagnose (they
// still count, which at worst over-sizes the slice by the bad lines). A
// failed rewind is fatal: the stream has been consumed and cannot be
// parsed anymore.
func prescanEdgeList(r io.Reader, s io.Seeker) (count, maxID int, err error) {
	start, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		// The source cannot even report its position (e.g. a pipe wearing a
		// Seeker interface); nothing was consumed, parse single-pass.
		return 0, -1, nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	maxID = -1
	for sc.Scan() {
		b := sc.Bytes()
		i := 0
		for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r') {
			i++
		}
		if i == len(b) || b[i] == '#' || b[i] == '%' {
			continue
		}
		count++
		for f := 0; f < 2; f++ {
			for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
				i++
			}
			id, ok := 0, false
			for i < len(b) && b[i] >= '0' && b[i] <= '9' {
				d := int(b[i] - '0')
				if id > (int(maxVertexID)-d)/10 {
					ok = false // overflow; the parse pass reports it
					i = len(b)
					break
				}
				id = id*10 + d
				i++
				ok = true
			}
			if ok && id > maxID {
				maxID = id
			}
		}
	}
	// A scan error (over-long line) is also the parse pass's to report, but
	// only after the rewind restores its input.
	if _, err := s.Seek(start, io.SeekStart); err != nil {
		return 0, -1, fmt.Errorf("graph: rewinding edge list after pre-scan: %w", err)
	}
	if sc.Err() != nil {
		return 0, -1, nil
	}
	return count, maxID, nil
}

// WriteEdgeList emits g as a text edge list readable by ReadEdgeList.
// Weights are emitted only for weighted graphs.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", v, g.Dst[i], g.Weight[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, g.Dst[i])
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxVertexID bounds the vertex ids ReadEdgeList accepts. Ids are uint32 in
// the CSR, so this is not a capacity limit of the type; it keeps a hostile
// id from demanding a RowPtr of billions of entries.
const maxVertexID = 1 << 31
