package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ddpolice/internal/telemetry"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	p.SetRule(ClassQuery, Rule{Drop: 1})
	p.SetAll(Rule{Drop: 1})
	p.Partition(1, 2)
	p.Heal()
	p.AttachTelemetry(nil)
	if p.Blocked(1, 3) {
		t.Fatal("nil plan blocked a frame")
	}
	if v := p.Decide(ClassQuery); v != (Verdict{}) {
		t.Fatalf("nil plan verdict = %+v, want zero", v)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := Wrap(a, nil, 1, 2, nil); got != a {
		t.Fatal("Wrap(nil plan) should return the conn unchanged")
	}
}

func TestDecideDeterministic(t *testing.T) {
	mk := func() []Verdict {
		p := NewPlan(42)
		p.SetRule(ClassQuery, Rule{Drop: 0.3, Duplicate: 0.2, Delay: time.Millisecond, Jitter: time.Millisecond})
		out := make([]Verdict, 200)
		for i := range out {
			out[i] = p.Decide(ClassQuery)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRuleProbabilities(t *testing.T) {
	p := NewPlan(7)
	p.SetRule(ClassControl, Rule{Drop: 1})
	for i := 0; i < 50; i++ {
		if v := p.Decide(ClassControl); !v.Drop {
			t.Fatal("Drop=1 rule did not drop")
		}
		if v := p.Decide(ClassQuery); v != (Verdict{}) {
			t.Fatalf("unruled class got verdict %+v", v)
		}
	}
	p.SetRule(ClassControl, Rule{Reset: 1, Drop: 1})
	if v := p.Decide(ClassControl); !v.Reset || v.Drop {
		t.Fatalf("reset should preempt drop, got %+v", v)
	}
	p.SetRule(ClassControl, Rule{})
	if v := p.Decide(ClassControl); v != (Verdict{}) {
		t.Fatalf("cleared rule still fires: %+v", v)
	}
}

func TestPartitionBlockedAndHeal(t *testing.T) {
	p := NewPlan(1)
	p.Partition(1, 2)
	cases := []struct {
		a, b    int32
		blocked bool
	}{
		{1, 3, true},  // member -> outsider
		{3, 2, true},  // outsider -> member
		{1, 2, false}, // both inside
		{3, 4, false}, // both outside
	}
	for _, c := range cases {
		if got := p.Blocked(c.a, c.b); got != c.blocked {
			t.Errorf("Blocked(%d,%d) = %v, want %v", c.a, c.b, got, c.blocked)
		}
	}
	p.Heal()
	if p.Blocked(1, 3) {
		t.Fatal("healed partition still blocks")
	}
}

// pipeReader drains one frame-sized read from the far pipe end.
func pipeReader(t *testing.T, conn net.Conn, n int) <-chan []byte {
	t.Helper()
	out := make(chan []byte, 4)
	go func() {
		for {
			buf := make([]byte, n)
			if _, err := io.ReadFull(conn, buf); err != nil {
				close(out)
				return
			}
			out <- buf
		}
	}()
	return out
}

func TestConnDropAndDeliver(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := NewPlan(3)
	plan.SetRule(ClassOther, Rule{Drop: 1})
	wc := Wrap(a, plan, 1, 2, nil)
	defer wc.Close()

	frame := []byte("hello")
	if n, err := wc.Write(frame); n != len(frame) || err != nil {
		t.Fatalf("dropped write: n=%d err=%v", n, err)
	}
	got := pipeReader(t, b, len(frame))
	select {
	case f := <-got:
		t.Fatalf("dropped frame was delivered: %q", f)
	case <-time.After(50 * time.Millisecond):
	}

	plan.SetRule(ClassOther, Rule{})
	if _, err := wc.Write(frame); err != nil {
		t.Fatalf("clean write: %v", err)
	}
	select {
	case f := <-got:
		if !bytes.Equal(f, frame) {
			t.Fatalf("delivered %q, want %q", f, frame)
		}
	case <-time.After(time.Second):
		t.Fatal("clean frame never delivered")
	}
}

func TestConnDuplicate(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := NewPlan(3)
	plan.SetRule(ClassOther, Rule{Duplicate: 1})
	wc := Wrap(a, plan, 1, 2, nil)
	defer wc.Close()

	frame := []byte("twice")
	got := pipeReader(t, b, len(frame))
	if _, err := wc.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case f := <-got:
			if !bytes.Equal(f, frame) {
				t.Fatalf("copy %d = %q, want %q", i, f, frame)
			}
		case <-time.After(time.Second):
			t.Fatalf("copy %d never arrived", i)
		}
	}
}

func TestConnPartitionSwallows(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := NewPlan(3)
	plan.Partition(1)
	wc := Wrap(a, plan, 1, 2, nil)
	defer wc.Close()

	if n, err := wc.Write([]byte("x")); n != 1 || err != nil {
		t.Fatalf("blocked write: n=%d err=%v", n, err)
	}
	select {
	case f := <-pipeReader(t, b, 1):
		t.Fatalf("partitioned frame delivered: %q", f)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestConnInjectedReset(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := NewPlan(3)
	plan.SetRule(ClassOther, Rule{Reset: 1})
	wc := Wrap(a, plan, 1, 2, nil)

	_, err := wc.Write([]byte("x"))
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write error = %v, want ErrInjectedReset", err)
	}
	// The underlying conn must be closed: further writes fail even with
	// the rule cleared.
	plan.SetRule(ClassOther, Rule{})
	if _, err := wc.Write([]byte("y")); err == nil {
		t.Fatal("write after injected reset succeeded")
	}
}

// A wrapped TCP connection half-closes: the peer reads every byte
// written before it sees the end, and can still answer.
func TestConnCloseWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	wc := Wrap(a, NewPlan(1), 1, 2, nil).(*Conn)
	if _, err := wc.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	if err := wc.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	b.SetDeadline(time.Now().Add(2 * time.Second))
	if got, err := io.ReadAll(b); err != nil || string(got) != "bye" {
		t.Fatalf("peer read %q, %v; want the frame, then the end", got, err)
	}
	if _, err := b.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 2)
	if _, err := io.ReadFull(wc, reply); err != nil || string(reply) != "ok" {
		t.Fatalf("half-closed side read %q, %v; want the peer's answer", reply, err)
	}
}

func TestConnClassifierRoutesRules(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := NewPlan(3)
	plan.SetRule(ClassControl, Rule{Drop: 1})
	classify := func(frame []byte) Class {
		if frame[0] == 'c' {
			return ClassControl
		}
		return ClassQuery
	}
	wc := Wrap(a, plan, 1, 2, classify)
	defer wc.Close()

	got := pipeReader(t, b, 1)
	wc.Write([]byte("c")) // control: dropped
	wc.Write([]byte("q")) // query: delivered
	select {
	case f := <-got:
		if f[0] != 'q' {
			t.Fatalf("delivered %q, want the query frame", f)
		}
	case <-time.After(time.Second):
		t.Fatal("query frame never delivered")
	}
}

func TestPlanTelemetry(t *testing.T) {
	reg := telemetry.New()
	plan := NewPlan(9)
	plan.AttachTelemetry(reg)
	plan.SetRule(ClassQuery, Rule{Drop: 1})
	plan.Decide(ClassQuery)
	plan.Partition(1)
	plan.Blocked(1, 2)
	if got := reg.Counter("faults.injected_drops").Load(); got != 1 {
		t.Fatalf("injected_drops = %d, want 1", got)
	}
	if got := reg.Counter("faults.partition_blocked").Load(); got != 1 {
		t.Fatalf("partition_blocked = %d, want 1", got)
	}
}
