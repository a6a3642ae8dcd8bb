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
	"slices"
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

// Validate reports a config NewCatalog cannot build, naming the field.
// The float comparisons are written so that NaN fails them too: a NaN
// ZipfExponent would hang the sampler's first draw, and a non-finite
// MeanReplicas or ReplicationSkew would give every object MinReplicas
// holders without a word.
func (cfg CatalogConfig) Validate() error {
	switch {
	case cfg.NumObjects <= 0:
		return fmt.Errorf("workload: NumObjects = %d (want > 0)", cfg.NumObjects)
	case !(cfg.ZipfExponent >= 0) || math.IsInf(cfg.ZipfExponent, 1):
		return fmt.Errorf("workload: ZipfExponent = %v (want finite and >= 0)", cfg.ZipfExponent)
	case !(cfg.MeanReplicas > 0) || math.IsInf(cfg.MeanReplicas*float64(cfg.NumObjects), 1):
		return fmt.Errorf("workload: MeanReplicas = %v (want > 0, with MeanReplicas × NumObjects finite)", cfg.MeanReplicas)
	case math.IsNaN(cfg.ReplicationSkew) || math.IsInf(cfg.ReplicationSkew, 0):
		return fmt.Errorf("workload: ReplicationSkew = %v (want finite)", cfg.ReplicationSkew)
	case cfg.MinReplicas < 1:
		return fmt.Errorf("workload: MinReplicas = %d (want >= 1)", cfg.MinReplicas)
	}
	return nil
}

// Catalog holds object popularity and placement. It is immutable once
// built, so concurrent runs may share one: whatever advances — the
// popularity sampler's stream — lives in the Sampler each consumer takes.
type Catalog struct {
	popularity []float64         // normalized query probability per object
	peers      []topology.NodeID // every object's holders, object after object
	bits       []uint64          // the bitsets of the lists that have one, in object order
	// peerAt and bitAt hold each object's offsets into peers and bits:
	// object o's list is peers[peerAt[o]:peerAt[o+1]], and its bitset
	// the same span of bits, empty when it has none.
	peerAt, bitAt []int
	zipf          *rng.Zipf // start of the sampling stream; cloned, never drawn from
}

// NewCatalog builds a catalog and places replicas on the n peers.
func NewCatalog(cfg CatalogConfig, numPeers int, src *rng.Source) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numPeers <= 0 {
		return nil, fmt.Errorf("workload: numPeers = %d", numPeers)
	}
	n := cfg.NumObjects
	c := &Catalog{
		popularity: rng.ZipfWeights(n, cfg.ZipfExponent),
		peerAt:     make([]int, n+1),
		bitAt:      make([]int, n+1),
		zipf:       rng.NewZipf(src.Split(), uint64(n), cfg.ZipfExponent),
	}
	// Replica budget shaped by popularity^skew, normalized to the mean.
	shape := make([]float64, n)
	var shapeSum float64
	for i, p := range c.popularity {
		shape[i] = math.Pow(p, cfg.ReplicationSkew)
		shapeSum += shape[i]
	}
	if !(shapeSum > 0) || math.IsInf(shapeSum, 1) {
		return nil, fmt.Errorf("workload: ReplicationSkew = %v under ZipfExponent = %v gives replica shares that sum to %v (want finite and > 0)",
			cfg.ReplicationSkew, cfg.ZipfExponent, shapeSum)
	}
	budget := cfg.MeanReplicas * float64(n)
	for o := range n {
		count := numPeers
		if share := budget * shape[o] / shapeSum; share < float64(numPeers) {
			count = min(max(int(share), cfg.MinReplicas), numPeers)
		}
		c.peerAt[o+1] = c.peerAt[o] + count
		c.bitAt[o+1] = c.bitAt[o]
		if indexed(count, numPeers) {
			c.bitAt[o+1] += bitWords(numPeers)
		}
	}
	c.peers, c.bits = make([]topology.NodeID, c.peerAt[n]), make([]uint64, c.bitAt[n])
	perm := make([]topology.NodeID, numPeers)
	for i := range perm {
		perm[i] = topology.NodeID(i)
	}
	for o := range n {
		samplePeers(src, perm, c.Holders(ObjectID(o)))
	}
	return c, nil
}

// Holders returns the peers storing object o, with their bitset if the
// list is long enough to have one.
func (c *Catalog) Holders(o ObjectID) Replicas {
	r := Replicas{peers: c.peers[c.peerAt[o]:c.peerAt[o+1]:c.peerAt[o+1]]}
	if b := c.bits[c.bitAt[o]:c.bitAt[o+1]:c.bitAt[o+1]]; len(b) > 0 {
		r.bits = b
	}
	return r
}

// Sampler draws objects according to popularity from its own copy of
// the catalog's stream: every Sampler of one catalog emits the same
// sequence, and drawing from one moves no other.
type Sampler struct{ zipf *rng.Zipf }

// Sampler returns a sampler positioned at the start of the stream.
func (c *Catalog) Sampler() *Sampler { return &Sampler{c.zipf.Clone()} }

// Object draws the next object.
func (s *Sampler) Object() ObjectID { return ObjectID(s.zipf.Rank() - 1) }

// samplePeers draws len(r.peers) distinct peers into r by partial
// Fisher-Yates over perm, the identity permutation, and leaves it the
// identity again: a position past the count is touched only when drawn,
// and its own value moved into r.peers the first time it was. The
// restore loop sets r's bits, if it has any.
func samplePeers(src *rng.Source, perm []topology.NodeID, r Replicas) {
	out := r.peers
	for i := range out {
		j := i + src.Intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
		out[i] = perm[i]
	}
	for i, v := range out {
		perm[i], perm[v] = topology.NodeID(i), v
		if r.bits != nil {
			r.bits[uint32(v)/64] |= 1 << (uint32(v) % 64)
		}
	}
}

// Replicas is one object's replica list: distinct peers, in placement
// order, and, when the list is long enough, a bitset of them over every
// peer, which lets a flood test a visited peer for membership in one
// load. A list has its bitset exactly when it holds at least two peers
// per 64-bit word of it (at least numPeers/32), so a bitset is never
// larger than its list. A Replicas is immutable, and the zero value is
// the empty list.
type Replicas struct {
	peers []topology.NodeID
	bits  []uint64 // nil unless indexed(len(peers), numPeers)
}

// NewReplicas returns the replica list of peers over numPeers peers. It
// refuses a peer outside [0, numPeers) or one listed twice.
//
//ddlint:allow dead -- flood's kernel tests build their replica lists with it
func NewReplicas(numPeers int, peers ...topology.NodeID) (Replicas, error) {
	bits := make([]uint64, bitWords(numPeers))
	for _, v := range peers {
		if v < 0 || int(v) >= numPeers {
			return Replicas{}, fmt.Errorf("workload: replica %d outside [0, %d)", v, numPeers)
		}
		word, bit := uint32(v)/64, uint64(1)<<(uint32(v)%64)
		if bits[word]&bit != 0 {
			return Replicas{}, fmt.Errorf("workload: replica %d listed twice", v)
		}
		bits[word] |= bit
	}
	r := Replicas{peers: slices.Clone(peers)}
	if indexed(len(peers), numPeers) {
		r.bits = bits
	}
	return r, nil
}

// Peers returns the list in placement order. It is shared: read it,
// never write it.
func (r Replicas) Peers() []topology.NodeID { return r.peers }

// Bits returns the list's bitset, bit v%64 of word v/64 set for each
// peer v, or nil when the list is too short to have one. It is shared:
// read it, never write it.
func (r Replicas) Bits() []uint64 { return r.bits }

// bitWords is the length of a bitset over numPeers peers.
func bitWords(numPeers int) int { return (numPeers + 63) / 64 }

// indexed reports whether a list of count peers out of numPeers gets a
// bitset: at least two peers per word.
func indexed(count, numPeers int) bool { return count >= 2*bitWords(numPeers) }

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
