package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	input := `# comment
% another comment
0 1
1 2

2 0
`
	g, err := ReadEdgeList(strings.NewReader(input), 0)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Errorf("got %d vertices %d edges, want 3/3", g.NumVertices(), g.NumEdges())
	}
	if g.Weighted() {
		t.Error("unweighted input produced weighted graph")
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 2.5\n1 0 0.5\n"), 0)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("weighted input produced unweighted graph")
	}
	if got := g.EdgeWeight(g.RowPtr[0]); got != 2.5 {
		t.Errorf("weight = %g, want 2.5", got)
	}
}

func TestReadEdgeListVertexHint(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 10 {
		t.Errorf("NumVertices = %d, want 10 (hint)", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",       // too few fields
		"x 1\n",     // bad src
		"0 y\n",     // bad dst
		"0 1 zzz\n", // bad weight
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), 0); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := smallGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	back, err := ReadEdgeList(&buf, g.NumVertices())
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if !reflect.DeepEqual(g.RowPtr, back.RowPtr) || !reflect.DeepEqual(g.Dst, back.Dst) {
		t.Error("text round trip changed the graph")
	}
}

// TestReadEdgeListHostile covers text inputs that previously could demand
// gigantic allocations or smuggle non-finite weights into the CSR.
func TestReadEdgeListHostile(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"0 4294967295\n", "exceeds format limit"},
		{"4294967295 0\n", "exceeds format limit"},
		{"0 1 NaN\n", "non-finite weight"},
		{"0 1 +Inf\n", "non-finite weight"},
		{"0 1 -Inf\n", "non-finite weight"},
	}
	for _, tc := range cases {
		_, err := ReadEdgeList(strings.NewReader(tc.in), 0)
		if err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadEdgeList(%q) error %q does not mention %q", tc.in, err, tc.want)
		}
	}
}

// streamOnly hides the Seeker interface of its underlying reader, forcing
// ReadEdgeList onto its single-pass path.
type streamOnly struct{ r io.Reader }

func (s streamOnly) Read(p []byte) (int, error) { return s.r.Read(p) }

// TestReadEdgeListPrescanEquivalence pins that the seekable pre-scan path
// (count + max-id first pass, then parse into a pre-sized slice) produces
// exactly the graph the single-pass path does, including on inputs with
// comments, blank lines, and weights.
func TestReadEdgeListPrescanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sb strings.Builder
	sb.WriteString("# header comment\n\n")
	for i := 0; i < 4000; i++ {
		if i%97 == 0 {
			sb.WriteString("% interior comment\n")
		}
		fmt.Fprintf(&sb, "%d %d %g\n", rng.Intn(500), rng.Intn(500), rng.Float64())
	}
	input := sb.String()

	seeked, err := ReadEdgeList(strings.NewReader(input), 0)
	if err != nil {
		t.Fatalf("seekable: %v", err)
	}
	streamed, err := ReadEdgeList(streamOnly{strings.NewReader(input)}, 0)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if !reflect.DeepEqual(seeked.RowPtr, streamed.RowPtr) ||
		!reflect.DeepEqual(seeked.Dst, streamed.Dst) ||
		!reflect.DeepEqual(seeked.Weight, streamed.Weight) {
		t.Fatal("seekable and single-pass parses diverge")
	}

	// A reader whose position moved before the call must rewind to that
	// position, not offset zero.
	r := strings.NewReader("garbage\n0 1\n1 0\n")
	if _, err := r.Seek(8, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	g, err := ReadEdgeList(r, 0)
	if err != nil {
		t.Fatalf("offset start: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("offset start parsed %d edges, want 2", g.NumEdges())
	}
}

// benchEdgeList builds a deterministic ~200k-line text edge list once per
// benchmark binary.
var benchEdgeList = func() string {
	rng := rand.New(rand.NewSource(12))
	var sb strings.Builder
	for i := 0; i < 200_000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", rng.Intn(50_000), rng.Intn(50_000))
	}
	return sb.String()
}()

// BenchmarkReadEdgeListSeekable measures the pre-sized two-pass parse; its
// single-pass sibling below is the regression baseline the pre-scan is
// meant to beat on allocations.
func BenchmarkReadEdgeListSeekable(b *testing.B) {
	b.SetBytes(int64(len(benchEdgeList)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(strings.NewReader(benchEdgeList), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadEdgeListStream(b *testing.B) {
	b.SetBytes(int64(len(benchEdgeList)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(streamOnly{strings.NewReader(benchEdgeList)}, 0); err != nil {
			b.Fatal(err)
		}
	}
}
