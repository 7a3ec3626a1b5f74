package dserve

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func ringKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("graph-%d", i)
	}
	return out
}

func TestRingLookupBasics(t *testing.T) {
	r := NewRing(64)
	if got := r.Lookup("k", 1); got != nil {
		t.Fatalf("empty ring lookup = %v, want nil", got)
	}
	members := ringMembers(5)
	for _, m := range members {
		r.Add(m)
	}
	r.Add(members[0]) // duplicate add is a no-op
	if r.Len() != 5 {
		t.Fatalf("len = %d, want 5", r.Len())
	}

	// Replica sets are distinct, sized as asked, and stable.
	for _, key := range ringKeys(50) {
		set := r.Lookup(key, 3)
		if len(set) != 3 {
			t.Fatalf("lookup(%q,3) = %d members", key, len(set))
		}
		seen := map[string]bool{}
		for _, m := range set {
			if seen[m] {
				t.Fatalf("lookup(%q,3) repeated member %s", key, m)
			}
			seen[m] = true
		}
		again := r.Lookup(key, 3)
		for i := range set {
			if set[i] != again[i] {
				t.Fatalf("lookup(%q) not deterministic", key)
			}
		}
	}
	// n<=0 and n>len return every member.
	if got := len(r.Lookup("k", 0)); got != 5 {
		t.Fatalf("lookup n=0 = %d members, want all 5", got)
	}
	if got := len(r.Lookup("k", 99)); got != 5 {
		t.Fatalf("lookup n=99 = %d members, want all 5", got)
	}

	r.Remove(members[2])
	r.Remove("http://nope") // unknown removal is a no-op
	if r.Len() != 4 {
		t.Fatalf("len after remove = %d, want 4", r.Len())
	}
	for _, key := range ringKeys(50) {
		for _, m := range r.Lookup(key, 2) {
			if m == members[2] {
				t.Fatalf("removed member still owns %q", key)
			}
		}
	}
}

// TestRingKeyMovementBounded pins the consistent-hashing property: with N
// members, removing (or adding) one moves only about 1/N of the keyspace.
// A modulo-style placement would move nearly all keys.
func TestRingKeyMovementBounded(t *testing.T) {
	const nMembers, nKeys = 8, 2000
	members := ringMembers(nMembers)
	build := func(ms []string) *Ring {
		r := NewRing(64)
		for _, m := range ms {
			r.Add(m)
		}
		return r
	}
	owners := func(r *Ring) map[string]string {
		out := make(map[string]string, nKeys)
		for _, k := range ringKeys(nKeys) {
			out[k] = r.Lookup(k, 1)[0]
		}
		return out
	}
	moved := func(a, b map[string]string) int {
		n := 0
		for k, o := range a {
			if b[k] != o {
				n++
			}
		}
		return n
	}

	before := owners(build(members))

	// Remove one member: ~1/8 of keys should move, and every moved key
	// must have been owned by the removed member.
	r2 := build(members)
	r2.Remove(members[3])
	after := owners(r2)
	m := 0
	for k, o := range before {
		if after[k] != o {
			m++
			if o != members[3] {
				t.Fatalf("key %q moved from surviving member %s to %s", k, o, after[k])
			}
		}
	}
	if frac := float64(m) / nKeys; frac > 0.30 {
		t.Errorf("removal moved %.0f%% of keys, want ≈ 1/%d (< 30%%)", 100*frac, nMembers)
	}

	// Add one member: only keys claimed by the newcomer may move.
	r3 := build(members)
	r3.Add("http://10.0.0.99:8080")
	grown := owners(r3)
	m = moved(before, grown)
	for k, o := range before {
		if grown[k] != o && grown[k] != "http://10.0.0.99:8080" {
			t.Fatalf("key %q moved to %s, not the new member", k, grown[k])
		}
	}
	if frac := float64(m) / nKeys; frac > 0.30 {
		t.Errorf("addition moved %.0f%% of keys, want ≈ 1/%d (< 30%%)", 100*frac, nMembers+1)
	}
	if m == 0 {
		t.Error("addition moved no keys; new member owns nothing")
	}
}
