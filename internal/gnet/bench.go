package gnet

// Benchmark hooks for the repository benchmark (bench/live.go): they
// install a buddy-group view and drive one Neighbor_Traffic round —
// start, collect reports over the real links, verdict — without waiting
// for a hot window to close. Production code never calls them.

import (
	"cmp"
	"fmt"
	"time"
)

// runOnCtl runs fn on the run loop and returns its error; a run loop that
// takes over 5 s for either half of the trip is reported as stalled.
func (n *Node) runOnCtl(fn func(now time.Time) error) error {
	fnErr, err := ctlCall(n, 5*time.Second, fn)
	return cmp.Or(err, fnErr)
}

// BenchPrimeSuspect installs a buddy-group view of suspect — members as
// synthetic 10/8 addresses, so members that are neighbors are asked over
// their links — and last-window counts for it. Keep in/out modest
// against Q0 so the verdict leaves the suspect, and the topology, in
// place. The view is pinned: the suspect's own list, which may still be
// in flight, does not replace it.
func (n *Node) BenchPrimeSuspect(suspect int32, memberIDs []int32, in, out float64) error {
	return n.runOnCtl(func(now time.Time) error { return n.core.Prime(now, suspect, memberIDs, in, out) })
}

// BenchNTRound drives one full round about a primed suspect: it opens the
// round, waits for every asked member's report, then passes the verdict.
// It returns the number of reports collected.
func (n *Node) BenchNTRound(suspect int32, timeout time.Duration) (int, error) {
	if err := n.runOnCtl(func(now time.Time) error { return n.core.Evaluate(now, suspect) }); err != nil {
		return 0, err
	}
	expired := time.After(timeout)
	for {
		var seated, silent int
		var open bool
		if err := n.runOnCtl(func(time.Time) error {
			seated, silent, open = n.core.Seats(suspect)
			return nil
		}); err != nil || !open {
			return seated, err // nobody to ask, or the deadline judged the round
		}
		if silent == 0 {
			return seated, n.runOnCtl(func(now time.Time) error { n.core.Verdict(now, suspect); return nil })
		}
		select {
		case <-expired:
			return seated, fmt.Errorf("gnet: NT round timed out with %d reports missing", silent)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
