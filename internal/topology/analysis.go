package topology

// Structural analysis used to validate that generated topologies match
// the paper's BRITE profile (small-world reach, heavy-tailed degrees)
// and cited measurements ("95% of any two nodes are less than 7 hops
// away" [25]).

import (
	"fmt"
	"math"

	"ddpolice/internal/rng"
)

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's assortativity coefficient). BA graphs are mildly
// disassortative (hubs attach to leaves).
func (g *Graph) DegreeAssortativity() float64 {
	var sx, sy, sxx, syy, sxy float64
	m := 0
	for u := range g.adj {
		du := float64(len(g.adj[u]))
		for _, w := range g.adj[u] {
			dv := float64(len(g.adj[w]))
			// Each undirected edge appears twice (both orientations),
			// which symmetrizes the correlation.
			sx += du
			sy += dv
			sxx += du * du
			syy += dv * dv
			sxy += du * dv
			m++
		}
	}
	if m == 0 {
		return 0
	}
	n := float64(m)
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// PathLengthStats summarizes hop distances over sampled source BFS runs.
type PathLengthStats struct {
	Mean       float64
	Max        int     // max observed over the sampled sources
	WithinTTL7 float64 // fraction of sampled pairs within 7 hops
	Samples    int     // number of (source, destination) pairs measured
}

// SamplePathLengths runs BFS from `sources` randomly chosen nodes and
// aggregates hop statistics over all reachable pairs.
func (g *Graph) SamplePathLengths(src *rng.Source, sources int) (PathLengthStats, error) {
	n := len(g.adj)
	if n == 0 {
		return PathLengthStats{}, fmt.Errorf("topology: empty graph")
	}
	if sources <= 0 || sources > n {
		sources = n
	}
	perm := src.Perm(n)
	var st PathLengthStats
	var sum float64
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
			for _, w := range g.adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for v := 0; v < n; v++ {
			if NodeID(v) == start || dist[v] < 0 {
				continue
			}
			d := int(dist[v])
			st.Samples++
			sum += float64(d)
			if d > st.Max {
				st.Max = d
			}
			if d <= 7 {
				st.WithinTTL7++
			}
		}
	}
	if st.Samples > 0 {
		st.Mean = sum / float64(st.Samples)
		st.WithinTTL7 /= float64(st.Samples)
	}
	return st, nil
}

// BallSizes returns the mean number of nodes reachable within each hop
// count 1..maxHops from sampled sources — the flood-coverage profile
// that calibrates the simulator's TTL (DESIGN.md, finding 2).
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
