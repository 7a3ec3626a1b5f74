package gen

import (
	"fmt"
	"os"
	"strings"

	"graphpulse/internal/graph"
)

// Tier selects the size class of a dataset stand-in. The paper's full-scale
// datasets range from 5M to 1.46B edges; simulating full Twitter at cycle
// level is a multi-day run, so benchmarks default to Mini and tests to Tiny.
// Shapes (who wins, by what factor) are preserved across tiers because the
// degree distribution and vertex/edge ratios are.
type Tier int

const (
	// Tiny is for unit/integration tests (sub-second runs).
	Tiny Tier = iota
	// Mini is the default benchmark tier (seconds per run).
	Mini
	// Full matches the paper's dataset sizes (hours per run; TW-class
	// requires ~16 GB RAM just for the CSR).
	Full
)

// tierNames is the tier vocabulary of every -tier flag and "ABBREV:tier"
// graph source, indexed by Tier.
var tierNames = [...]string{Tiny: "tiny", Mini: "mini", Full: "full"}

// TierList renders that vocabulary for flag docs and errors
// ("tiny|mini|full").
func TierList() string { return strings.Join(tierNames[:], "|") }

func (t Tier) String() string {
	if t >= 0 && int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// ParseTier is the inverse of Tier.String.
func ParseTier(name string) (Tier, error) {
	for t, n := range tierNames {
		if name == n {
			return Tier(t), nil
		}
	}
	return 0, fmt.Errorf("gen: unknown tier %q (want %s)", name, TierList())
}

// Load materializes a graph source string, the one form every tool's graph
// argument takes: "ABBREV:tier" is a Table IV stand-in (abbreviation in
// either case, e.g. "WG:tiny", "lj:mini") generated through cache; anything
// else is a text edge-list file (graph.ReadEdgeList). Graphpack containers
// are not sources here: callers route them to ooc first (ooc.IsPack), since
// ooc's and partition's tests import this package and it cannot import ooc.
func Load(source string, cache *Cache) (*graph.CSR, error) {
	if abbrev, tierName, ok := strings.Cut(source, ":"); ok {
		if tier, err := ParseTier(tierName); err == nil {
			spec, err := DatasetByAbbrev(abbrev)
			if err != nil {
				return nil, err
			}
			return cache.Generate(spec, tier)
		}
	}
	f, err := os.Open(source)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f, 0)
}

// DatasetSpec describes one of the paper's Table IV workloads and the R-MAT
// parameters of its synthetic stand-in.
type DatasetSpec struct {
	// Name and Abbrev follow Table IV ("LiveJournal(LJ)").
	Name   string
	Abbrev string
	// PaperVertices/PaperEdges are the sizes reported in Table IV.
	PaperVertices int64
	PaperEdges    int64
	// Description matches Table IV.
	Description string

	// EdgeFactor is edges per vertex for the stand-in (≈ paper's ratio).
	EdgeFactor int
	// Skew selects the R-MAT 'a' quadrant probability; larger = more
	// power-law skew. b=c=(1-a-d)/2 with d derived.
	Skew float64
	// scales per tier (log2 vertex count).
	tinyScale, miniScale, fullScale int
}

// Datasets lists the five Table IV workloads in paper order.
var Datasets = []DatasetSpec{
	{
		Name: "Web-Google", Abbrev: "WG",
		PaperVertices: 870_000, PaperEdges: 5_100_000,
		Description: "Google Web Graph",
		EdgeFactor:  6, Skew: 0.57,
		tinyScale: 12, miniScale: 16, fullScale: 20,
	},
	{
		Name: "Facebook", Abbrev: "FB",
		PaperVertices: 3_010_000, PaperEdges: 47_330_000,
		Description: "Facebook Social Net.",
		EdgeFactor:  16, Skew: 0.55,
		tinyScale: 12, miniScale: 16, fullScale: 21,
	},
	{
		Name: "Wikipedia", Abbrev: "WK",
		PaperVertices: 3_560_000, PaperEdges: 45_030_000,
		Description: "Wikipedia Page Links",
		EdgeFactor:  13, Skew: 0.60,
		tinyScale: 12, miniScale: 16, fullScale: 22,
	},
	{
		Name: "LiveJournal", Abbrev: "LJ",
		PaperVertices: 4_840_000, PaperEdges: 68_990_000,
		Description: "LiveJournal Social Net.",
		EdgeFactor:  14, Skew: 0.57,
		tinyScale: 13, miniScale: 17, fullScale: 22,
	},
	{
		Name: "Twitter", Abbrev: "TW",
		PaperVertices: 41_650_000, PaperEdges: 1_460_000_000,
		Description: "Twitter Follower Graph",
		EdgeFactor:  35, Skew: 0.62,
		tinyScale: 13, miniScale: 17, fullScale: 25,
	},
}

// DatasetByAbbrev returns the spec with the given Table IV abbreviation,
// in either case.
func DatasetByAbbrev(abbrev string) (DatasetSpec, error) {
	for _, d := range Datasets {
		if strings.EqualFold(d.Abbrev, abbrev) {
			return d, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("gen: unknown dataset %q", abbrev)
}

// Scale returns the log2 vertex count used at the given tier.
func (d DatasetSpec) Scale(t Tier) int {
	switch t {
	case Tiny:
		return d.tinyScale
	case Mini:
		return d.miniScale
	default:
		return d.fullScale
	}
}

// Generate builds the dataset stand-in at the given tier. Graphs are always
// weighted so that one generation serves every algorithm (SSSP and
// Adsorption need weights; the others ignore them). Generation is
// deterministic: the seed is derived from the abbreviation and tier.
func (d DatasetSpec) Generate(t Tier) (*graph.CSR, error) {
	seed := int64(17)
	for _, c := range d.Abbrev {
		seed = seed*131 + int64(c)
	}
	seed = seed*131 + int64(t)
	a := d.Skew
	dq := 0.05
	b := (1 - a - dq) / 2
	return RMAT(RMATParams{
		A: a, B: b, C: b, D: dq,
		Scale:       d.Scale(t),
		EdgeFactor:  d.EdgeFactor,
		Weighted:    true,
		Seed:        seed,
		NoiseAmount: 0.1,
	})
}
