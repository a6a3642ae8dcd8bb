package topology

// Structural analysis used to validate that generated topologies match
// the paper's BRITE profile (small-world reach) and cited measurements
// ("95% of any two nodes are less than 7 hops away" [25]).

import (
	"fmt"

	"ddpolice/internal/rng"
)

// BallSizes returns the mean number of nodes reachable within each hop
// count 1..maxHops from sampled sources — the flood-coverage profile
// that calibrates the simulator's TTL (DESIGN.md, finding 2).
//
//ddlint:allow dead -- ROADMAP items 8 and 10 choose and check TTL coverage with it
func (g *Graph) BallSizes(src *rng.Source, sources, maxHops int) ([]float64, error) {
	n := len(g.adj)
	if n == 0 {
		return nil, fmt.Errorf("topology: empty graph")
	}
	if maxHops < 1 {
		return nil, fmt.Errorf("topology: maxHops %d", maxHops)
	}
	if sources <= 0 || sources > n {
		sources = n
	}
	perm := src.Perm(n)
	out := make([]float64, maxHops)
	dist := make([]int32, n)
	queue := make([]NodeID, 0, n)
	for s := 0; s < sources; s++ {
		start := NodeID(perm[s])
		for i := range dist {
			dist[i] = -1
		}
		dist[start] = 0
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if int(dist[v]) >= maxHops {
				continue
			}
			for _, w := range g.adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for v := 0; v < n; v++ {
			if d := int(dist[v]); d > 0 {
				for h := d; h <= maxHops; h++ {
					out[h-1]++
				}
			}
		}
	}
	for i := range out {
		out[i] /= float64(sources)
	}
	return out, nil
}
