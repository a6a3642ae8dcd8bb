package topology

import (
	"fmt"

	"ddpolice/internal/rng"
)

// BarabasiAlbert generates a preferential-attachment graph with n nodes
// where each arriving node attaches to m distinct existing nodes chosen
// with probability proportional to degree. The result has average
// degree ≈ 2m, a power-law tail ("a few peers have tens of direct
// neighbors"), and minimum degree m — matching the paper's BRITE
// topologies (n = 2000, m = 3 gives avg degree ≈ 6, most nodes 3–4).
func BarabasiAlbert(src *rng.Source, n, m int) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("topology: BarabasiAlbert m=%d < 1", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("topology: BarabasiAlbert n=%d too small for m=%d", n, m)
	}
	b := NewBuilder(n)
	// Seed: a clique over the first m+1 nodes so every node has degree
	// >= m from the start.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			if err := b.AddEdge(NodeID(i), NodeID(j)); err != nil {
				return nil, err
			}
		}
	}
	// repeated stores each endpoint once per incident edge, so sampling
	// uniformly from it is degree-proportional sampling.
	repeated := make([]NodeID, 0, 2*(m*(m+1)/2+(n-m-1)*m))
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			repeated = append(repeated, NodeID(i), NodeID(j))
		}
	}
	targets := make([]NodeID, 0, m)
	for v := m + 1; v < n; v++ {
		targets = targets[:0]
	sample:
		for len(targets) < m {
			t := repeated[src.Intn(len(repeated))]
			for _, prev := range targets {
				if prev == t {
					continue sample
				}
			}
			targets = append(targets, t)
		}
		for _, t := range targets {
			if err := b.AddEdge(NodeID(v), t); err != nil {
				return nil, err
			}
			repeated = append(repeated, NodeID(v), t)
		}
	}
	return b.Build(), nil
}

// RingLattice generates a ring where each node links to its k nearest
// neighbors on each side (2k total). Deterministic; used in tests where
// exact structure matters.
//
//ddlint:allow dead -- overlay, police and gnet tests build their fixtures on it
func RingLattice(n, k int) (*Graph, error) {
	if n < 3 || k < 1 || 2*k >= n {
		return nil, fmt.Errorf("topology: RingLattice n=%d k=%d invalid", n, k)
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			j := (i + d) % n
			if !b.HasEdge(NodeID(i), NodeID(j)) {
				if err := b.AddEdge(NodeID(i), NodeID(j)); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build(), nil
}
