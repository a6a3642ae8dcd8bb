// Package workload models what peers share and search for. The paper
// drives its simulations with query rates and popularity measured from
// real systems: every peer issues 0.3 queries per minute (from the
// Gnutella measurements in [16]: 12,805 IPs issued 1,146,782 queries in
// 5 hours) and basic settings follow the University of Washington KaZaA
// trace [20]. We reproduce that with a Zipf object-popularity catalog,
// popularity-proportional replication, and a Poisson query process.
package workload

import (
	"fmt"
	"math"
	"sort"

	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// ObjectID identifies a shared object (rank order: 0 is most popular).
type ObjectID int32

// CatalogConfig parameterizes the shared-content model.
type CatalogConfig struct {
	NumObjects   int     // distinct objects in the system
	ZipfExponent float64 // popularity skew (Gnutella traces: ~0.8)
	MeanReplicas float64 // average replicas per object
	// ReplicationSkew controls how replica count scales with
	// popularity: replicas(o) ∝ popularity(o)^ReplicationSkew.
	// 1 = proportional (natural for fetch-and-share systems),
	// 0.5 = square-root (optimal for random search), 0 = uniform.
	ReplicationSkew float64
	MinReplicas     int // floor so every object exists somewhere
}

// DefaultCatalogConfig returns the baseline content model used by the
// experiments: 10,000 objects, Zipf 0.8, ~20 replicas each.
func DefaultCatalogConfig() CatalogConfig {
	return CatalogConfig{
		NumObjects:      10000,
		ZipfExponent:    0.8,
		MeanReplicas:    20,
		ReplicationSkew: 1,
		MinReplicas:     3,
	}
}

// Catalog holds object popularity and placement. It is immutable once
// built, so concurrent runs may share one: whatever advances — the
// popularity sampler's stream — lives in the Sampler each consumer takes.
type Catalog struct {
	popularity []float64           // normalized query probability per object
	holders    [][]topology.NodeID // object -> peers storing it
	zipf       *rng.Zipf           // start of the sampling stream; cloned, never drawn from
}

// NewCatalog builds a catalog and places replicas on the n peers.
func NewCatalog(cfg CatalogConfig, numPeers int, src *rng.Source) (*Catalog, error) {
	if cfg.NumObjects <= 0 {
		return nil, fmt.Errorf("workload: NumObjects = %d", cfg.NumObjects)
	}
	if numPeers <= 0 {
		return nil, fmt.Errorf("workload: numPeers = %d", numPeers)
	}
	if cfg.MeanReplicas <= 0 || cfg.MinReplicas < 1 {
		return nil, fmt.Errorf("workload: replica config %v/%d invalid", cfg.MeanReplicas, cfg.MinReplicas)
	}
	c := &Catalog{
		popularity: rng.ZipfWeights(cfg.NumObjects, cfg.ZipfExponent),
		holders:    make([][]topology.NodeID, cfg.NumObjects),
		zipf:       rng.NewZipf(src.Split(), uint64(cfg.NumObjects), cfg.ZipfExponent),
	}
	// Replica budget shaped by popularity^skew, normalized to the mean.
	shape := make([]float64, cfg.NumObjects)
	var shapeSum float64
	for i, p := range c.popularity {
		shape[i] = math.Pow(p, cfg.ReplicationSkew)
		shapeSum += shape[i]
	}
	budget := cfg.MeanReplicas * float64(cfg.NumObjects)
	perm := make([]topology.NodeID, numPeers)
	for i := range perm {
		perm[i] = topology.NodeID(i)
	}
	for o := 0; o < cfg.NumObjects; o++ {
		count := int(budget * shape[o] / shapeSum)
		if count < cfg.MinReplicas {
			count = cfg.MinReplicas
		}
		if count > numPeers {
			count = numPeers
		}
		c.holders[o] = samplePeers(src, perm, count)
	}
	return c, nil
}

// Holders returns the peers storing object o, each once. The list is
// never written after NewCatalog returns, and callers must not write it
// either: flood.Engine memoizes a bitset per list by the list's identity
// (flood.FloodQuery states the contract).
func (c *Catalog) Holders(o ObjectID) []topology.NodeID { return c.holders[o] }

// NumObjects returns the catalog size.
func (c *Catalog) NumObjects() int { return len(c.holders) }

// Sampler draws objects according to popularity from its own copy of
// the catalog's stream: every Sampler of one catalog emits the same
// sequence, and drawing from one moves no other.
type Sampler struct{ zipf *rng.Zipf }

// Sampler returns a sampler positioned at the start of the stream.
func (c *Catalog) Sampler() *Sampler { return &Sampler{c.zipf.Clone()} }

// Object draws the next object.
func (s *Sampler) Object() ObjectID { return ObjectID(s.zipf.Rank() - 1) }

// samplePeers draws count distinct peers by partial Fisher-Yates over
// perm, the identity permutation, and leaves it the identity again: a
// position past count is touched only when drawn, and its own value
// moved into out the first time it was.
func samplePeers(src *rng.Source, perm []topology.NodeID, count int) []topology.NodeID {
	out := make([]topology.NodeID, count)
	for i := range out {
		j := i + src.Intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
		out[i] = perm[i]
	}
	for i, v := range out {
		perm[i], perm[v] = topology.NodeID(i), v
	}
	return out
}

// QueryGen produces the good peers' query arrivals: a Poisson process
// at rate QueriesPerMin per online peer (paper: 0.3/min).
type QueryGen struct {
	ratePerSec float64
	src        *rng.Source
	objects    *Sampler
	issued     uint64
}

// Query is one search request.
type Query struct {
	Issuer topology.NodeID
	Object ObjectID
}

// NewQueryGen builds a generator at the given per-peer per-minute rate.
func NewQueryGen(catalog *Catalog, queriesPerMin float64, src *rng.Source) (*QueryGen, error) {
	if queriesPerMin < 0 {
		return nil, fmt.Errorf("workload: negative query rate %v", queriesPerMin)
	}
	return &QueryGen{ratePerSec: queriesPerMin / 60, src: src, objects: catalog.Sampler()}, nil
}

// Issued returns the total number of queries generated so far.
func (q *QueryGen) Issued() uint64 { return q.issued }

// Tick appends the queries issued during a dt-second interval by the
// given online peers and returns the extended slice.
func (q *QueryGen) Tick(online []topology.NodeID, dt float64, buf []Query) []Query {
	if len(online) == 0 || q.ratePerSec == 0 {
		return buf
	}
	total := q.src.Poisson(q.ratePerSec * dt * float64(len(online)))
	for i := 0; i < total; i++ {
		buf = append(buf, Query{
			Issuer: online[q.src.Intn(len(online))],
			Object: q.objects.Object(),
		})
		q.issued++
	}
	return buf
}

// FitZipf estimates the Zipf popularity exponent from observed
// per-object query counts by least-squares regression of log(frequency)
// on log(rank) over the most-queried objects (the head of the
// distribution, where the Zipf tail noise is smallest). It returns the
// fitted exponent (the negated slope). At least three distinct objects
// with positive counts are required.
func FitZipf(counts []uint64) (float64, error) {
	var positive []uint64
	for _, c := range counts {
		if c > 0 {
			positive = append(positive, c)
		}
	}
	if len(positive) < 3 {
		return 0, fmt.Errorf("workload: FitZipf needs >= 3 positive counts, got %d", len(positive))
	}
	sort.Slice(positive, func(i, j int) bool { return positive[i] > positive[j] })
	// Use the head: up to 100 top ranks (or all, if fewer).
	n := len(positive)
	if n > 100 {
		n = 100
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(positive[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("workload: FitZipf degenerate ranks")
	}
	slope := (float64(n)*sxy - sx*sy) / den
	return -slope, nil
}
