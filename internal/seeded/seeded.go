// Package seeded is the one seeded decision stream behind both fault
// injectors (internal/sim/fault for the hardware models, internal/dserve/
// chaos for the serving fleet): a family of per-point call counters hashed
// with the seed through the SplitMix64 finalizer, so the k-th decision at a
// point is a pure function of (seed, point, k) and probing one point never
// perturbs another — plus the "key=value,…" spec splitter their CLIs share.
package seeded

import (
	"fmt"
	"strconv"
	"strings"
)

// Mix is the SplitMix64 finalizer: a bijective avalanche over uint64, the
// standard seed-expansion hash (Steele et al., "Fast Splittable
// Pseudorandom Number Generators").
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream holds one call counter per decision point under one seed. It is
// not concurrency-safe.
type Stream struct {
	seed uint64
	seq  []uint64
}

// New returns a Stream with the given number of points, all at call 0.
func New(seed uint64, points int) Stream {
	return Stream{seed: seed, seq: make([]uint64, points)}
}

// Next advances point p's counter and returns its previous value.
func (s *Stream) Next(p int) uint64 {
	k := s.seq[p]
	s.seq[p]++
	return k
}

// Uniform returns point p's next uniform value in [0,1).
func (s *Stream) Uniform(p int) float64 {
	u := Mix(s.seed ^ uint64(p)<<56 ^ s.Next(p))
	// 53 high bits → uniform float64 in [0,1).
	return float64(u>>11) / (1 << 53)
}

// ParseSpec walks a compact "key=value,key=value" specification: the
// "seed" term is parsed into *seed, every other term goes to set (keys and
// values trimmed, empty terms skipped). pkg prefixes the error messages.
func ParseSpec(pkg, spec string, seed *uint64, set func(key, val string) error) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("%s: spec term %q is not key=value", pkg, part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key != "seed" {
			if err := set(key, val); err != nil {
				return err
			}
			continue
		}
		s, err := strconv.ParseUint(val, 0, 64)
		if err != nil {
			return fmt.Errorf("%s: bad seed %q: %v", pkg, val, err)
		}
		*seed = s
	}
	return nil
}
