package overlay

import (
	"reflect"
	"slices"
	"testing"

	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// mutate applies one random connectivity operation: a flip (a rejoin
// clears the cuts on the peer's edges), a cut, an uncut, a no-op, or a
// partition of eight consecutive peers applied or healed the way the
// simulator does it, boundary edge by boundary edge.
func mutate(o *Overlay, src *rng.Source, partition *[][2]PeerID) {
	g := o.Graph()
	n := o.NumPeers()
	v := PeerID(src.Intn(n))
	ns := g.Neighbors(v)
	switch src.Intn(8) {
	case 0, 1, 2:
		o.SetOnline(v, !o.Online(v))
	case 3, 4:
		_ = o.Cut(v, ns[src.Intn(len(ns))])
	case 5:
		o.Uncut(v, ns[src.Intn(len(ns))])
	case 6:
		o.SetOnline(v, o.Online(v)) // no-op: no version bump, no row rewritten
	case 7:
		if len(*partition) > 0 {
			for _, e := range *partition {
				o.Uncut(e[0], e[1])
			}
			*partition = (*partition)[:0]
			return
		}
		lo := src.Intn(n - 8)
		for u := PeerID(lo); u < PeerID(lo+8); u++ {
			for _, w := range g.Neighbors(u) {
				if int(w) < lo || int(w) >= lo+8 {
					_ = o.Cut(u, w)
					*partition = append(*partition, [2]PeerID{u, w})
				}
			}
		}
	}
}

// TestChangeLogAndOnlineIndexMatchRescan is the property test for the
// overlay's incremental views: after every step of a seeded random
// mutation sequence, every peer's active row (Active: peers and edge
// ids) equals a rescan of its static row against the online flags and
// the cuts, a step that leaves Version unchanged leaves every row as it
// was, and AppendOnline/OnlineCount equal an ascending scan of Online.
// The rows replaced the change log its readers rebuilt them from, and
// Version is the change record that traversal caches key on.
func TestChangeLogAndOnlineIndexMatchRescan(t *testing.T) {
	const n = 400
	for seed := uint64(1); seed <= 4; seed++ {
		g, err := topology.BarabasiAlbert(rng.New(seed), n, 3)
		if err != nil {
			t.Fatal(err)
		}
		o := New(g)
		src := rng.New(1000 + seed)
		var partition [][2]PeerID
		var online, wantP []PeerID
		var wantE []EdgeID
		prevP, prevE := make([][]PeerID, n), make([][]EdgeID, n)
		for v := PeerID(0); v < n; v++ {
			p, e := o.Active(v)
			prevP[v], prevE[v] = slices.Clone(p), slices.Clone(e)
		}
		for step := 1; step <= 1500; step++ {
			ver := o.Version()
			mutate(o, src, &partition)
			unchanged := o.Version() == ver

			var scan []PeerID
			for v := 0; v < n; v++ {
				if o.Online(PeerID(v)) {
					scan = append(scan, PeerID(v))
				}
			}
			online = o.AppendOnline(online[:0])
			if !reflect.DeepEqual(online, scan) && len(online)+len(scan) > 0 {
				t.Fatalf("seed %d step %d: AppendOnline = %v, scan = %v", seed, step, online, scan)
			}
			if o.OnlineCount() != len(scan) {
				t.Fatalf("seed %d step %d: OnlineCount = %d, scan has %d", seed, step, o.OnlineCount(), len(scan))
			}

			for v := PeerID(0); v < n; v++ {
				wantP, wantE = wantP[:0], wantE[:0]
				for k, w := range g.Neighbors(v) {
					e := o.EdgeID(v, k)
					if o.Online(v) && o.Online(w) && !o.EdgeCut(e) {
						wantP, wantE = append(wantP, w), append(wantE, e)
					}
				}
				gotP, gotE := o.Active(v)
				if !slices.Equal(gotP, wantP) || !slices.Equal(gotE, wantE) {
					t.Fatalf("seed %d step %d: row %d = %v %v, rescan = %v %v", seed, step, v, gotP, gotE, wantP, wantE)
				}
				if unchanged && (!slices.Equal(gotP, prevP[v]) || !slices.Equal(gotE, prevE[v])) {
					t.Fatalf("seed %d step %d: row %d changed to %v %v without a version bump (was %v %v)",
						seed, step, v, gotP, gotE, prevP[v], prevE[v])
				}
				prevP[v] = append(prevP[v][:0], gotP...)
				prevE[v] = append(prevE[v][:0], gotE...)
			}
		}
	}
}
