package overlay

import (
	"reflect"
	"testing"

	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// rowConsumer keeps every peer's active-neighbour row current the way
// the flood layer's adjacency snapshot does: rows named by ChangedSince
// are re-derived, and when the log no longer reaches back, all of them.
type rowConsumer struct {
	ver     uint64
	rows    [][]PeerID
	partial int // syncs served from the log
	full    int // syncs that had to take every row as changed
}

func newRowConsumer(o *Overlay) *rowConsumer {
	c := &rowConsumer{ver: o.Version(), rows: make([][]PeerID, o.NumPeers())}
	for v := range c.rows {
		c.rows[v] = o.ActiveNeighbors(PeerID(v), nil)
	}
	return c
}

func (c *rowConsumer) sync(o *Overlay) {
	changed, ok := o.ChangedSince(c.ver, nil)
	if ok {
		c.partial++
	} else {
		c.full++
		changed = changed[:0]
		for v := range c.rows {
			changed = append(changed, PeerID(v))
		}
	}
	for _, v := range changed {
		c.rows[v] = o.ActiveNeighbors(v, c.rows[v][:0])
	}
	c.ver = o.Version()
}

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
		o.SetOnline(v, o.Online(v)) // no-op: no version bump, nothing logged
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
// two incremental views: after every step of a seeded random mutation
// sequence, rows maintained through ChangedSince equal rows derived
// from scratch — for a consumer that syncs every step, one that syncs
// every few steps, and one that lags past the log bound — and
// AppendOnline/OnlineCount equal an ascending scan of Online.
func TestChangeLogAndOnlineIndexMatchRescan(t *testing.T) {
	const n = 400
	for seed := uint64(1); seed <= 4; seed++ {
		g, err := topology.BarabasiAlbert(rng.New(seed), n, 3)
		if err != nil {
			t.Fatal(err)
		}
		o := New(g)
		src := rng.New(1000 + seed)
		every := []int{1, 5, 97}
		consumers := []*rowConsumer{newRowConsumer(o), newRowConsumer(o), newRowConsumer(o)}
		var partition [][2]PeerID
		var online []PeerID
		for step := 1; step <= 1500; step++ {
			mutate(o, src, &partition)

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

			for i, c := range consumers {
				if step%every[i] != 0 {
					continue
				}
				c.sync(o)
				for v := 0; v < n; v++ {
					want := o.ActiveNeighbors(PeerID(v), nil)
					if len(want) != len(c.rows[v]) || (len(want) > 0 && !reflect.DeepEqual(want, c.rows[v])) {
						t.Fatalf("seed %d step %d, consumer every %d: row %d = %v, rescan = %v",
							seed, step, every[i], v, c.rows[v], want)
					}
				}
			}
		}
		// Guard against passing vacuously: the prompt consumers must
		// have been served from the log (a partition can still outrun
		// it within one step), the laggard refused by it.
		if c := consumers[0]; c.partial < 10*c.full {
			t.Fatalf("seed %d: every-step consumer: %d syncs from the log, %d full", seed, c.partial, c.full)
		}
		if consumers[1].partial == 0 {
			t.Fatalf("seed %d: every-5-steps consumer was never served from the log", seed)
		}
		if consumers[2].full == 0 {
			t.Fatalf("seed %d: the lagging consumer never outran the log bound", seed)
		}
	}
}
