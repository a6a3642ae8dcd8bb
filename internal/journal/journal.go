// Package journal is a bounded, lock-light event journal for the
// DD-POLICE detection lifecycle. Producers (the simulator's police
// engine, gnet's monitor/drop/reconnect paths, the fault plane) record
// small structured events; consumers read them back as a slice or as
// NDJSON — one JSON object per line — for the /journal endpoint and
// the detection-timeline analysis in cmd/ddexp.
//
// Timestamps are supplied by the caller: the simulator stamps logical
// seconds from its seeded clock, so two identical-seed runs produce
// byte-identical journals; gnet stamps Unix seconds from the node's
// Clock. The journal itself never reads a clock.
//
// A nil *Journal is inert — Record is a nil-check no-op — mirroring
// the zero-cost-when-disabled contract of internal/telemetry.
package journal

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"ddpolice/internal/telemetry"
)

// Event types recorded by the detection pipeline and fault plane.
const (
	// TypeWarning: an observer's per-minute inbound count for a
	// neighbor crossed the warning threshold (Value = queries/min).
	TypeWarning = "warning_crossed"
	// TypeNTRequest: the observer started a Neighbor_Traffic round
	// for a suspect (K = buddy members asked).
	TypeNTRequest = "nt_request"
	// TypeNTReport: an asked buddy member's seat at the verdict, filled:
	// its NT report reached the observer at T (Member = reporter).
	TypeNTReport = "nt_report"
	// TypeNTTimeout: an asked buddy member's seat at the verdict, empty:
	// the member stayed silent and scores zero, §3.3. One event per
	// silent member, Member set, in the simulator and the live node
	// alike (police.Round writes both).
	TypeNTTimeout = "nt_timeout"
	// TypeNTDefer: the verdict was deferred one half-window because
	// every asked member was still silent (Value = members asked). Live
	// node only: the simulator's minute has no second deadline.
	TypeNTDefer = "nt_defer"
	// TypeIndicator: indicators computed for a suspect (G = g(j,t),
	// S = s(j,t,i), K = group size, Window = minute index).
	TypeIndicator = "indicator"
	// TypeCut: the observer cut the suspect (G/S as at the verdict).
	TypeCut = "cut"
	// TypeReconnect: reconnect supervisor activity (Detail =
	// attempt|ok|giveup, Value = attempt number).
	TypeReconnect = "reconnect"
	// TypePeerDrop: a live-node connection dropped (Detail =
	// transport|orderly|cut provenance).
	TypePeerDrop = "peer_drop"
	// TypeAttackStart: a flooding agent began its attack.
	TypeAttackStart = "attack_start"
	// TypeCrash: the fault plane crashed a peer without departure
	// notice.
	TypeCrash = "crash"
	// TypePartition: a timed partition cut the overlay (Value =
	// overlay edges cut).
	TypePartition = "partition"
	// TypeHeal: a timed partition healed (Value = edges restored).
	TypeHeal = "heal"
	// TypeShed: a node shed messages under overload (Detail = class
	// "query"/"control", Window = minute, Value = messages shed).
	TypeShed = "shed"
	// TypeDegraded: a node entered or left degraded mode (Detail =
	// "enter"/"exit", Window = minute, Value = shed fraction).
	TypeDegraded = "degraded"
	// TypeQuarantine: a peer's overload circuit breaker transitioned
	// (Peer = subject, Detail = "quarantine"/"probe"/"restore",
	// Value = offered inbound queries that window).
	TypeQuarantine = "quarantine"
	// TypeOverload: a scheduled capacity brownout started or ended
	// (Detail = "start"/"end", Value = capacity factor, K = peers).
	TypeOverload = "overload"
)

// Event is one journal entry. Node is the acting/observing peer, Peer
// the subject (suspect, dropped neighbor, crashed peer), Member a
// third party such as the buddy member reporting. Unused fields are
// omitted from the NDJSON encoding.
type Event struct {
	Seq    uint64  `json:"seq"`
	T      float64 `json:"t"` // seconds: logical (sim) or unix wall-clock (gnet)
	Type   string  `json:"type"`
	Node   int64   `json:"node,omitempty"`
	Peer   int64   `json:"peer,omitempty"`
	Member int64   `json:"member,omitempty"`
	G      float64 `json:"g,omitempty"`
	S      float64 `json:"s,omitempty"`
	K      int     `json:"k,omitempty"`
	Window int     `json:"window,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// Journal is a bounded ring of events. When full, Record overwrites
// the oldest entry and counts it as dropped; Seq keeps increasing, so
// gaps in a read-back are detectable. All methods are safe for
// concurrent use; Record takes one short mutex hold (no allocation, no
// encoding unless a Tee sink is attached) so it is cheap enough for
// verdict-path call sites.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	next    int // oldest entry once the ring is full
	seq     uint64
	dropped uint64

	// tee, when attached, receives every recorded event as one NDJSON
	// line, so a sink outlives the ring's capacity; teeErr is the first
	// error it returned, after which nothing more is written.
	tee    *json.Encoder
	teeErr error

	// dropGauge, when attached, mirrors the running drop count into a
	// telemetry gauge so a live /metrics scrape sees ring overflow as
	// it happens (nil-safe: telemetry instruments no-op on nil).
	dropGauge *telemetry.Gauge
}

// New returns a journal retaining the last capacity events (minimum 1).
func New(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{buf: make([]Event, 0, capacity)}
}

// Record stamps the next sequence number on e and appends it,
// overwriting the oldest entry when the ring is full. No-op on nil.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, e)
	} else {
		j.buf[j.next] = e
		j.next++
		if j.next == len(j.buf) {
			j.next = 0
		}
		j.dropped++
		j.dropGauge.Set(int64(j.dropped))
	}
	if j.tee != nil && j.teeErr == nil {
		j.teeErr = j.tee.Encode(e)
	}
	j.mu.Unlock()
}

// Tee makes every later Record also append the event to w as one
// NDJSON line, in sequence order and in WriteNDJSON's encoding — so a
// sink attached before the first Record holds every event, however
// many the ring has since overwritten. The write happens under the
// journal's lock: w must not call back into j. Check Err when the run
// is over. No-op on nil.
func (j *Journal) Tee(w io.Writer) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.tee = json.NewEncoder(w)
	j.mu.Unlock()
}

// Err returns the first error the Tee sink returned (nil on nil, with
// no sink, or while every write succeeded). The error is kept: events
// recorded after it are in the ring but not in the sink.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.teeErr
}

// AttachTelemetry exposes the ring's overflow count as the
// "journal.dropped" gauge in reg, updated live as entries are
// overwritten. No-op when either side is nil.
func (j *Journal) AttachTelemetry(reg *telemetry.Registry) {
	if j == nil || reg == nil {
		return
	}
	j.mu.Lock()
	j.dropGauge = reg.Gauge("journal.dropped")
	j.dropGauge.Set(int64(j.dropped))
	j.mu.Unlock()
}

// Len returns the number of retained events (0 on nil).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

// Dropped returns how many events were overwritten (0 on nil).
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns the retained events oldest-first (nil on nil).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.buf))
	if len(j.buf) == cap(j.buf) {
		out = append(out, j.buf[j.next:]...)
		out = append(out, j.buf[:j.next]...)
	} else {
		out = append(out, j.buf...)
	}
	return out
}

// EventsSince returns the retained events with Seq strictly greater
// than since, oldest-first — the /journal?since= cursor read. Because
// sequence numbers are monotonic and the ring is ordered, the suffix
// is found by binary search over the rotated view.
func (j *Journal) EventsSince(since uint64) []Event {
	ev := j.Events()
	lo, hi := 0, len(ev)
	for lo < hi {
		mid := (lo + hi) / 2
		if ev[mid].Seq <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ev[lo:]
}

// Tail returns the newest n retained events oldest-first.
func (j *Journal) Tail(n int) []Event {
	ev := j.Events()
	if n < 0 {
		n = 0
	}
	if len(ev) > n {
		ev = ev[len(ev)-n:]
	}
	return ev
}

// WriteNDJSON writes the retained events oldest-first, one JSON object
// per line. The encoding is deterministic (fixed field order, omitted
// zero fields), so identical journals produce identical bytes.
func (j *Journal) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range j.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadNDJSON parses events back from an NDJSON stream (blank lines are
// skipped). The inverse of WriteNDJSON, used by the analysis tooling
// to consume journals written to disk.
func ReadNDJSON(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
