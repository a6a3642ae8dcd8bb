// Package topology builds the logical overlay topologies used by the
// simulator. The paper generates its topologies with BRITE: "1 logical
// topologies with 2,000 peers. Most peers have 3 or 4 logical
// neighbors, and a few peers have tens of direct neighbors. The average
// number of neighbors of each node is 6." A Barabási–Albert
// preferential-attachment generator with m≈3 reproduces exactly that
// degree profile.
package topology

import (
	"fmt"
	"slices"
)

// NodeID identifies a node within a Graph.
type NodeID int32

// Graph is an immutable simple undirected graph in CSR-like adjacency
// form. Build one with a Builder or a generator.
type Graph struct {
	adj [][]NodeID
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
//
//ddlint:allow dead -- gnet/core's flood tests count a full flood's messages with it
func (g *Graph) NumEdges() int {
	total := 0
	for _, ns := range g.adj {
		total += len(ns)
	}
	return total / 2
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// Neighbors returns the neighbor list of v. Callers must not mutate it.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.adj[v] }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	ns := g.adj[u]
	for _, w := range ns {
		if w == v {
			return true
		}
	}
	return false
}

// Builder assembles a simple undirected graph incrementally. It keeps
// one unsorted adjacency row per node; a duplicate is found by scanning
// the shorter of the two rows, which in a preferential-attachment graph
// is the newcomer's handful of edges, not the hub's.
type Builder struct {
	adj [][]NodeID
}

// NewBuilder creates a builder for a graph with n nodes and no edges.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Builder{adj: make([][]NodeID, n)}
}

// inRange reports whether v names one of the builder's nodes.
func (b *Builder) inRange(v NodeID) bool { return v >= 0 && int(v) < len(b.adj) }

// AddEdge inserts edge {u, v}. Self-loops and duplicates are rejected
// with an error.
func (b *Builder) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("topology: self-loop on node %d", u)
	}
	if !b.inRange(u) || !b.inRange(v) {
		return fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", u, v, len(b.adj))
	}
	if b.HasEdge(u, v) {
		return fmt.Errorf("topology: duplicate edge (%d,%d)", u, v)
	}
	b.adj[u] = append(b.adj[u], v)
	b.adj[v] = append(b.adj[v], u)
	return nil
}

// HasEdge reports whether {u, v} has been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	if !b.inRange(u) || !b.inRange(v) {
		return false
	}
	row, other := b.adj[u], v
	if len(b.adj[v]) < len(row) {
		row, other = b.adj[v], u
	}
	return slices.Contains(row, other)
}

// Build produces the immutable Graph with sorted adjacency lists, every
// row a window of one flat array with its capacity clipped to its
// length. The builder is left as it was.
func (b *Builder) Build() *Graph {
	total := 0
	for _, row := range b.adj {
		total += len(row)
	}
	flat := make([]NodeID, 0, total)
	adj := make([][]NodeID, len(b.adj))
	for i, row := range b.adj {
		start := len(flat)
		flat = append(flat, row...)
		adj[i] = flat[start:len(flat):len(flat)]
		slices.Sort(adj[i])
	}
	return &Graph{adj: adj}
}
