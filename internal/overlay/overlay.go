// Package overlay maintains the dynamic state of the unstructured P2P
// overlay on top of a static logical topology: which peers are online
// (the paper "simulates the joining and leaving behavior of peers via
// turning on/off logical peers"), which logical connections have been
// cut by DD-POLICE, and the per-directed-edge per-minute query counters
// Q_{i->h}(t) that Definitions 2.1-2.3 are computed from. The counters
// exist only on an overlay that asked for them (CountTraffic): DD-POLICE
// is their one reader, and a run without it pays neither their memory
// nor a write per flood visit.
package overlay

import (
	"fmt"

	"ddpolice/internal/topology"
)

// PeerID identifies a peer; it equals the topology.NodeID of the
// underlying static graph.
type PeerID = topology.NodeID

// EdgeID indexes a *directed* logical edge (u -> k-th neighbor of u).
type EdgeID int32

// Overlay is the mutable overlay state. It is not safe for concurrent
// mutation; each simulation replica owns one Overlay.
type Overlay struct {
	g        *topology.Graph
	online   []bool
	edgeBase []EdgeID // edgeBase[v] + k = directed edge id of v -> adj[v][k]
	reverse  []EdgeID // reverse[e] = id of the opposite direction
	slot     []int32  // slot[e] = k such that e is (u -> adj[u][k]); for lookups
	cut      []bool   // per directed edge, symmetric
	// The active adjacency, laid out at the static edge base so one row
	// can be rewritten without moving the others: row v is
	// actPeer/actEdge[edgeBase[v] : edgeBase[v]+actCount[v]], v's online
	// neighbours over uncut edges with their directed edge ids, in static
	// neighbour order. Every mutation that changes connectivity rewrites
	// the rows it touched before it returns (rebuildRow), so Active is
	// always current.
	actCount []int32
	actPeer  []PeerID
	actEdge  []EdgeID
	// curQ and prevQ are the counter plane: the accumulating and the last
	// closed minute, per directed edge. Both are nil until CountTraffic.
	curQ     []float64
	prevQ    []float64
	numEdges int
	// onlineCount is the number of true entries in online. It is all
	// SetOnline maintains, so a flip costs O(degree); the ascending
	// online list is produced on demand by AppendOnline, whose callers
	// ask at most once per version change or minute.
	onlineCount int
	// version counts connectivity mutations (join/leave, cut/uncut —
	// including partition apply/heal, which go through Cut/Uncut).
	// Traversal caches and fair-share budgets key their validity on it;
	// no-op mutations (cutting an already-cut edge, re-onlining an
	// online peer) deliberately do not bump it.
	version uint64
}

// New creates an overlay over g with every peer online, no cuts and no
// traffic counters (see CountTraffic).
func New(g *topology.Graph) *Overlay {
	n := g.NumNodes()
	o := &Overlay{g: g, online: make([]bool, n), edgeBase: make([]EdgeID, n+1), onlineCount: n}
	var total EdgeID
	for v := 0; v < n; v++ {
		o.online[v] = true
		o.edgeBase[v] = total
		total += EdgeID(g.Degree(PeerID(v)))
	}
	o.edgeBase[n] = total
	o.numEdges = int(total)
	o.reverse = make([]EdgeID, total)
	o.slot = make([]int32, total)
	o.cut = make([]bool, total)
	o.actCount = make([]int32, n)
	o.actPeer = make([]PeerID, total)
	o.actEdge = make([]EdgeID, total)
	// Reverse edges by cursor, not search: rows are sorted and v ascends,
	// so the j-th time w is met as a neighbour, v must be adj[w][j]; a
	// mismatch is an asymmetric graph. Each directed edge advances one
	// cursor and none may pass its row's end, so every row is used up.
	cursor := make([]int32, n)
	for v := 0; v < n; v++ {
		for k, w := range g.Neighbors(PeerID(v)) {
			e := o.edgeBase[v] + EdgeID(k)
			o.slot[e] = int32(k)
			j := cursor[w]
			if int(j) >= g.Degree(w) || g.Neighbors(w)[j] != PeerID(v) {
				panic("overlay: asymmetric adjacency")
			}
			cursor[w]++
			o.reverse[e] = o.edgeBase[w] + EdgeID(j)
			// Everyone is online and nothing is cut: each row is whole.
			o.actPeer[e], o.actEdge[e] = w, e
		}
		o.actCount[v] = int32(g.Degree(PeerID(v)))
	}
	return o
}

// lookupEdge finds the directed edge u->w by scanning u's (sorted)
// neighbor list with binary search.
func (o *Overlay) lookupEdge(u, w PeerID) (EdgeID, bool) {
	ns := o.g.Neighbors(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ns) && ns[lo] == w {
		return o.edgeBase[u] + EdgeID(lo), true
	}
	return 0, false
}

// Graph returns the static logical topology.
func (o *Overlay) Graph() *topology.Graph { return o.g }

// NumPeers returns the total number of logical peers.
func (o *Overlay) NumPeers() int { return o.g.NumNodes() }

// NumDirectedEdges returns the number of directed logical edges.
func (o *Overlay) NumDirectedEdges() int { return o.numEdges }

// Version returns the connectivity mutation counter. It increments on
// every state-changing SetOnline, Cut and Uncut, so any derived view of
// reachability (flood traversal caches, fair-share edge budgets, online
// peer lists) is valid exactly while Version is unchanged.
func (o *Overlay) Version() uint64 { return o.version }

// Online reports whether v is currently in the system.
func (o *Overlay) Online(v PeerID) bool { return o.online[v] }

// OnlineCount returns the number of online peers in O(1).
func (o *Overlay) OnlineCount() int { return o.onlineCount }

// AppendOnline appends the online peers in ascending PeerID order to
// buf and returns the extended slice, by one O(NumPeers) scan of the
// online flags. buf may be nil. The returned contents are a copy; they
// stay valid across subsequent mutations.
func (o *Overlay) AppendOnline(buf []PeerID) []PeerID {
	for v, on := range o.online {
		if on {
			buf = append(buf, PeerID(v))
		}
	}
	return buf
}

// SetOnline toggles peer v. Transitioning in either direction clears
// all cuts and any traffic counters on v's edges: a leaving peer tears
// its connections down, and a (re)joining peer establishes fresh
// connections — which is also how a disconnected DDoS agent "joins the
// system again and launches another round of attacks" (§3.7.2).
func (o *Overlay) SetOnline(v PeerID, on bool) {
	if o.online[v] == on {
		return
	}
	o.online[v] = on
	o.version++
	if on {
		o.onlineCount++
	} else {
		o.onlineCount--
	}
	for k := range o.g.Neighbors(v) {
		e := o.edgeBase[v] + EdgeID(k)
		re := o.reverse[e]
		o.cut[e] = false
		o.cut[re] = false
		if o.curQ != nil {
			o.curQ[e], o.prevQ[e] = 0, 0
			o.curQ[re], o.prevQ[re] = 0, 0
		}
	}
	// v's own row and, because v appears in or vanishes from theirs and
	// the cuts on its edges are cleared, every static neighbour's.
	o.rebuildRow(v)
	for _, w := range o.g.Neighbors(v) {
		o.rebuildRow(w)
	}
}

// rebuildRow rewrites v's row of the active adjacency from the online
// flags and the cuts.
func (o *Overlay) rebuildRow(v PeerID) {
	base := o.edgeBase[v]
	n := base
	if o.online[v] {
		for k, w := range o.g.Neighbors(v) {
			e := base + EdgeID(k)
			if o.online[w] && !o.cut[e] {
				o.actPeer[n], o.actEdge[n] = w, e
				n++
			}
		}
	}
	o.actCount[v] = int32(n - base)
}

// EdgeID returns the directed edge id for u's k-th static neighbor.
func (o *Overlay) EdgeID(u PeerID, k int) EdgeID { return o.edgeBase[u] + EdgeID(k) }

// Reverse returns the opposite-direction edge id.
func (o *Overlay) Reverse(e EdgeID) EdgeID { return o.reverse[e] }

// Endpoints returns (from, to) for a directed edge id.
func (o *Overlay) Endpoints(e EdgeID) (from, to PeerID) {
	// Binary search edgeBase for the owner.
	lo, hi := 0, len(o.edgeBase)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if o.edgeBase[mid] <= e {
			lo = mid
		} else {
			hi = mid
		}
	}
	from = PeerID(lo)
	return from, o.g.Neighbors(from)[o.slot[e]]
}

// FindEdge returns the directed edge id u->w, if {u,w} is a logical edge.
func (o *Overlay) FindEdge(u, w PeerID) (EdgeID, bool) { return o.lookupEdge(u, w) }

// Connected reports whether the logical edge {u,w} exists, both ends
// are online, and the edge has not been cut.
func (o *Overlay) Connected(u, w PeerID) bool {
	if !o.online[u] || !o.online[w] {
		return false
	}
	e, ok := o.lookupEdge(u, w)
	return ok && !o.cut[e]
}

// Active returns v's row of the active adjacency: its currently
// reachable neighbors (online, edge not cut) in static neighbor order,
// and the directed edge id of v to each. An offline peer's row is empty.
// The slices are the overlay's own, read-only, and valid until the next
// SetOnline, Cut or Uncut; callers that mutate while iterating copy first
// (ActiveNeighbors).
func (o *Overlay) Active(v PeerID) (peers []PeerID, edges []EdgeID) {
	lo := o.edgeBase[v]
	hi := lo + EdgeID(o.actCount[v])
	return o.actPeer[lo:hi:hi], o.actEdge[lo:hi:hi]
}

// ActiveNeighbors appends v's active row (see Active) to buf and returns
// the extended slice: a copy that stays valid across mutations. buf may
// be nil.
func (o *Overlay) ActiveNeighbors(v PeerID, buf []PeerID) []PeerID {
	peers, _ := o.Active(v)
	return append(buf, peers...)
}

// Cut severs the logical connection {u,w} in both directions. It
// returns an error if the edge does not exist.
func (o *Overlay) Cut(u, w PeerID) error {
	e, ok := o.lookupEdge(u, w)
	if !ok {
		return fmt.Errorf("overlay: cut of non-edge (%d,%d)", u, w)
	}
	if !o.cut[e] {
		o.version++
		o.cut[e] = true
		o.cut[o.reverse[e]] = true
		o.rebuildRow(u)
		o.rebuildRow(w)
	}
	return nil
}

// Uncut restores a severed logical connection {u,w} in both directions
// — the healing half of a timed partition event. Uncutting an intact or
// non-existent edge is a no-op, so heals compose with churn: SetOnline
// may already have cleared the flags while the partition was up.
func (o *Overlay) Uncut(u, w PeerID) {
	e, ok := o.lookupEdge(u, w)
	if !ok {
		return
	}
	if o.cut[e] {
		o.version++
		o.cut[e] = false
		o.cut[o.reverse[e]] = false
		o.rebuildRow(u)
		o.rebuildRow(w)
	}
}

// EdgeCut reports whether directed edge e has been severed. It is the
// O(1) form of IsCut for callers that already hold an edge id.
func (o *Overlay) EdgeCut(e EdgeID) bool { return o.cut[e] }

// IsCut reports whether the logical edge {u,w} has been severed.
func (o *Overlay) IsCut(u, w PeerID) bool {
	e, ok := o.lookupEdge(u, w)
	return ok && o.cut[e]
}

// CutCount returns the number of undirected edges currently cut.
func (o *Overlay) CutCount() int {
	c := 0
	for _, b := range o.cut {
		if b {
			c++
		}
	}
	return c / 2
}

// CountTraffic turns the per-edge query counters on: from here on
// AddTraffic counts, RollMinute closes windows, and LastMinute and
// CurrentMinuteEdge may be read. Every counter starts at zero; a second
// call is a no-op. Call it before the first flood that should be
// counted. police.New is the one caller outside tests, so a run counts
// exactly when DD-POLICE is there to read the counts.
func (o *Overlay) CountTraffic() {
	if o.curQ == nil {
		o.curQ = make([]float64, o.numEdges)
		o.prevQ = make([]float64, o.numEdges)
	}
}

// mustCount panics on an overlay without counters: reading one would
// return zeros that look like a quiet minute.
func (o *Overlay) mustCount() {
	if o.curQ == nil {
		panic("overlay: traffic counters read before CountTraffic")
	}
}

// AddTraffic records amount queries flowing over directed edge e in the
// current minute window. Fractional amounts arise from attacker batch
// floods. Without CountTraffic it does nothing.
func (o *Overlay) AddTraffic(e EdgeID, amount float64) {
	if o.curQ != nil {
		o.curQ[e] += amount
	}
}

// AddTrafficBetween records traffic on the directed edge u->w, for
// callers that hold endpoints rather than an edge id (tests that stage
// a minute's counts). It is an error on a non-edge and on an overlay
// without counters.
func (o *Overlay) AddTrafficBetween(u, w PeerID, amount float64) error {
	if o.curQ == nil {
		return fmt.Errorf("overlay: traffic on (%d,%d) before CountTraffic", u, w)
	}
	e, ok := o.lookupEdge(u, w)
	if !ok {
		return fmt.Errorf("overlay: traffic on non-edge (%d,%d)", u, w)
	}
	o.curQ[e] += amount
	return nil
}

// RollMinute closes the current per-minute counter window: current
// counts become the "past one minute" values that Neighbor_Traffic
// messages report, and the current window resets. Without CountTraffic
// it does nothing.
func (o *Overlay) RollMinute() {
	if o.curQ == nil {
		return
	}
	o.prevQ, o.curQ = o.curQ, o.prevQ
	for i := range o.curQ {
		o.curQ[i] = 0
	}
}

// LastMinute returns the count of a directed edge for the most recently
// closed minute. It panics without CountTraffic.
func (o *Overlay) LastMinute(e EdgeID) float64 {
	o.mustCount()
	return o.prevQ[e]
}

// CurrentMinuteEdge returns the accumulating count for a directed edge.
// It panics without CountTraffic.
func (o *Overlay) CurrentMinuteEdge(e EdgeID) float64 {
	o.mustCount()
	return o.curQ[e]
}
