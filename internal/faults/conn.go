package faults

import (
	"errors"
	"net"
	"time"
)

// ErrInjectedReset is returned from Conn.Write when the plan tears the
// connection down; callers see it as a hard transport failure.
var ErrInjectedReset = errors.New("faults: injected connection reset")

// Classifier maps one outbound wire frame to its fault class. gnet
// passes a header-type classifier; nil classifies everything ClassOther.
type Classifier func(frame []byte) Class

// Conn applies a Plan's verdicts to every outbound frame of a wrapped
// net.Conn. Reads pass through untouched — injecting on the send side
// only keeps each fault attributable to exactly one decision while
// still exercising the receiver's loss handling.
//
// The wrapper assumes one protocol frame per Write call, which gnet's
// post-handshake pumps guarantee (protocol.Encode emits whole frames).
type Conn struct {
	net.Conn
	plan     *Plan
	local    int32
	remote   int32
	classify Classifier
}

// Wrap layers plan over conn for the (local, remote) pair. A nil plan
// returns conn unchanged so the fault-free path costs nothing.
func Wrap(conn net.Conn, plan *Plan, local, remote int32, classify Classifier) net.Conn {
	if plan == nil {
		return conn
	}
	return &Conn{Conn: conn, plan: plan, local: local, remote: remote, classify: classify}
}

// Write applies the plan to one outbound frame. Dropped and
// partition-blocked frames report success (the bytes vanish in the
// "network", exactly like UDP-style loss over a socket the sender still
// trusts); injected resets close the underlying connection and surface
// as a write error.
func (c *Conn) Write(p []byte) (int, error) {
	if c.plan.Blocked(c.local, c.remote) {
		return len(p), nil
	}
	class := ClassOther
	if c.classify != nil {
		class = c.classify(p)
	}
	v := c.plan.Decide(class)
	switch {
	case v.Reset:
		c.Conn.Close()
		return 0, ErrInjectedReset
	case v.Drop:
		return len(p), nil
	}
	if v.Delay > 0 {
		time.Sleep(v.Delay)
	}
	n, err := c.Conn.Write(p)
	if err == nil && v.Duplicate {
		c.Conn.Write(p)
	}
	return n, err
}

// CloseWrite half-closes the wrapped connection where it can, and closes
// it where it cannot.
func (c *Conn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return c.Conn.Close()
}
