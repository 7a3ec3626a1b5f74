package dserve

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over worker IDs: each member is hashed
// onto the ring at VirtualNodes points, and a key is owned by the first
// members encountered clockwise from the key's hash. Virtual nodes keep
// both load spread and key movement bounded — removing one of N members
// moves only ~1/N of the keyspace, which the stability tests pin. The
// ring itself is not concurrency-safe; the Router serializes access
// through its own lock.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (values below 1 get the default 64).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a member; adding an existing member is a no-op.
func (r *Ring) Add(id string) {
	if r.members[id] {
		return
	}
	r.members[id] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(id + "#" + strconv.Itoa(i)), owner: id})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].owner < r.points[b].owner
	})
}

// Remove deletes a member and its virtual nodes; unknown members are a
// no-op.
func (r *Ring) Remove(id string) {
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.owner != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// Lookup returns up to n distinct members owning key, in ring order
// starting clockwise from the key's hash — the replica set, primary
// first. n <= 0 or n beyond the member count returns every member.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.owner] {
			seen[p.owner] = true
			out = append(out, p.owner)
		}
	}
	return out
}
