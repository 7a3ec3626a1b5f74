package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"graphpulse/internal/graph/gen"
	"graphpulse/internal/serve"
)

// TestRunAgainstServer drives a real in-process server closed-loop with a
// query/mutate mix and checks every request was tallied and none failed.
func TestRunAgainstServer(t *testing.T) {
	g, err := gen.ErdosRenyi(128, 512, true, 21)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{
		Graphs: []serve.GraphSpec{{Name: "g", Graph: g}},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	st, err := Run(context.Background(), Config{
		BaseURL:     "http://" + addr.String(),
		Graph:       "g",
		Algorithm:   "pr",
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		MutateEvery: 20,
		MutateEdges: 4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Query.Count == 0 {
		t.Fatal("no queries completed")
	}
	if st.Mutate.Count == 0 {
		t.Error("mutate mix produced no mutations")
	}
	if st.Delete.Count != 0 || st.Stream.Count != 0 {
		t.Errorf("unrequested kinds ran: delete %d, stream %d", st.Delete.Count, st.Stream.Count)
	}
	if n := st.TotalErrors(); n != 0 {
		t.Errorf("hard failures: %d (%+v)", n, st)
	}
	if a := st.Availability(); a != 1 {
		t.Errorf("availability = %g, want 1", a)
	}
	var out strings.Builder
	st.WriteText(&out)
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "query ") || !strings.HasPrefix(lines[1], "mutate ") {
		t.Errorf("report = %q, want one query and one mutate line", out.String())
	}
}

// TestRunUnknownGraph pins the preflight failure mode.
func TestRunUnknownGraph(t *testing.T) {
	g, err := gen.ErdosRenyi(16, 32, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: "g", Graph: g}}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if _, err := Run(context.Background(), Config{
		BaseURL: "http://" + addr.String(),
		Graph:   "missing",
	}); err == nil {
		t.Fatal("Run against unknown graph succeeded")
	}
}
