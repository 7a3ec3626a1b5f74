package algorithms

import (
	"strings"
	"testing"

	"graphpulse/internal/graph"
)

// TestByNameResolvesEveryName: every Names entry builds, a rooted entry
// carries the requested root into its bootstrap event, and an unknown or
// missing name is rejected with the whole vocabulary in the message.
func TestByNameResolvesEveryName(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range Names() {
		alg, err := ByName(name, 2)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if seen[alg.Name()] {
			t.Errorf("%q resolves to %s, which another name already produced", name, alg.Name())
		}
		seen[alg.Name()] = true
		evs := alg.InitialEvents(g)
		if rooted := len(evs) == 1 && evs[0].Vertex == 2; rooted != Rooted(name) {
			t.Errorf("Rooted(%q) = %v, but its bootstrap events are %v", name, Rooted(name), evs)
		}
	}
	if len(seen) != 8 {
		t.Errorf("%d distinct algorithms behind Names, want the five Table II applications and three extensions", len(seen))
	}
	for _, bad := range []string{"bogus", ""} {
		if _, err := ByName(bad, 0); err == nil || !strings.Contains(err.Error(), NamesList()) {
			t.Errorf("ByName(%q) error = %v, want one listing %s", bad, err, NamesList())
		}
	}
	if Rooted("bogus") {
		t.Error("an unknown name is rooted")
	}
}
