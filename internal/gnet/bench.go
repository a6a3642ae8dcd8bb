package gnet

// Benchmark hooks for the repository benchmark (bench/live.go): a
// Neighbor_Traffic evaluation round is normally triggered by
// closeMinute observing a hot window, which is far too slow (and too
// noisy) to benchmark directly. These hooks let the harness inject a
// synthetic buddy-group view and drive one full start →
// collect-reports → verdict round on the real TCP links and the real
// run loop, without waiting out monitoring windows.
//
// They are exported only for benchmarking; production code paths never
// call them.

import (
	"errors"
	"fmt"
	"time"

	"ddpolice/internal/protocol"
)

// runOnCtl executes fn on the node's run loop and waits for it to
// finish, mirroring what message handlers do internally; a run loop
// that does not get to it within 5 s per half of the trip is reported
// as stalled.
func (n *Node) runOnCtl(fn func()) error {
	done := make(chan struct{}, 1)
	_, err := ctlCall(n, done, 5*time.Second, func() { fn(); done <- struct{}{} })
	return err
}

// BenchPrimeSuspect installs a synthetic buddy-group view for suspect
// on this node's monitor: the member list (as synthetic 10/8 addresses,
// so members that are direct peers are reached over the existing
// connections) plus last-window traffic counters for the suspect. Keep
// in/out modest relative to Q0 so the verdict does not cut the suspect
// and the topology survives repeated rounds. The view is pinned: a
// neighbor list the suspect sends afterwards (its initial exchange may
// still be in flight) does not replace it, or every later round would
// find nobody to ask.
func (n *Node) BenchPrimeSuspect(suspect int32, memberIDs []int32, in, out float64) error {
	if n.monitor == nil {
		return errors.New("gnet: police monitor not enabled")
	}
	members := make([]protocol.PeerAddr, len(memberIDs))
	for i, id := range memberIDs {
		members[i] = protocol.AddrFromNodeID(id, 0)
	}
	return n.runOnCtl(func() {
		m := n.monitor
		m.holdList(suspect, members, true)
		m.prevIn[suspect] = in
		m.prevOut[suspect] = out
	})
}

// BenchNTRound drives one full Neighbor_Traffic evaluation round for a
// previously primed suspect: startEvaluation on the run loop, wait for
// every asked member's report to arrive over TCP, then the verdict.
// Returns the number of member reports collected.
func (n *Node) BenchNTRound(suspect int32, timeout time.Duration) (int, error) {
	if n.monitor == nil {
		return 0, errors.New("gnet: police monitor not enabled")
	}
	m := n.monitor
	if err := n.runOnCtl(func() { m.startEvaluation(suspect) }); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(timeout)
	var got int
	for {
		missing := -1
		if err := n.runOnCtl(func() {
			if r, ok := m.pending[suspect]; ok {
				missing = r.Silent()
				got = len(r.Asked()) - missing
			}
		}); err != nil {
			return 0, err
		}
		if missing < 0 {
			// Nobody could be asked, or the armVerdict timer already
			// fired and judged the round.
			return got, nil
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			return got, fmt.Errorf("gnet: NT round timed out with %d reports missing", missing)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return got, n.runOnCtl(func() { m.finishEvaluation(suspect) })
}
