package police

// Bad-peer recognition (§3 step 3) written once, with no transport and
// no clock (DESIGN.md §19). Police.EvaluateMinute drives it from the
// simulated overlay inside one call, gnet's monitor from TCP links and
// timers. Every rule of the step and every journal record of a detection
// is decided here and nowhere else (`make lint`, detectorhome); the
// journal is a detection's only record.

import (
	"slices"

	"ddpolice/internal/journal"
)

// Verdict is a round's outcome. Zero G, S and K with Cut set is a
// disconnect no round decided (a lying list).
type Verdict struct {
	Observer, Suspect PeerID
	G, S              float64 // g(j,t) and s(j,t,i)
	K                 int     // buddy-group size: the observer plus every member asked
	Window            int
	Cut               bool
}

// seat is an asked member's place in the buddy group, filled or not.
type seat struct {
	rep Report
	t   float64 // when the report arrived
	got bool
}

// Round evaluates one suspect for one observer. Its inputs are events —
// the window closed (Warn, Open), a report arrived (Report), the
// deadline passed (Deadline) — stamped by the driver with its own time
// in seconds; its outputs are actions: whom to ask, wait once more, or a
// Verdict. The durations it compares are protocol seconds, in which a
// window lasts 60. A Round is reusable: Begin, or a Warn that crosses,
// starts the next evaluation; RecordCut reads only its Verdict, so a
// driver that cuts after a sweep records the cuts after later
// evaluations began.
type Round struct {
	cfg Config
	jr  *journal.Journal

	observer, suspect PeerID
	t                 float64 // when the evaluation began
	window            int     // the driver's index of the closed window
	own               Report  // the observer's measurement of that window
	asked             []PeerID
	seats             []seat // parallel to asked
	seated            int
	next              int // seat after the last one filled
	deferred          bool
	others            []Report // Deadline's scratch
}

// NewRound returns a round judging by cfg and recording into jr (nil: off).
func NewRound(cfg Config, jr *journal.Journal) *Round {
	return &Round{cfg: cfg, jr: jr}
}

// Begin starts an evaluation without the warning gate (benchmark hook, tests).
func (r *Round) Begin(observer, suspect PeerID, t float64, window int) {
	r.observer, r.suspect, r.t, r.window = observer, suspect, t, window
	r.asked, r.seats = r.asked[:0], r.seats[:0]
	r.seated, r.next, r.deferred = 0, 0, false
}

// note records one step of the evaluation at t: e, stamped with the
// observer and the suspect.
func (r *Round) note(t float64, e journal.Event) {
	e.T, e.Node, e.Peer = t, int64(r.observer), int64(r.suspect)
	r.jr.Record(e)
}

// Warn is the warning gate: if inbound, what the suspect sent the
// observer in the closed window, exceeds WarnThreshold it begins the
// evaluation, records the crossing and reports true.
func (r *Round) Warn(observer, suspect PeerID, t float64, window int, inbound float64) bool {
	if inbound <= r.cfg.WarnThreshold {
		return false
	}
	r.Begin(observer, suspect, t, window)
	r.note(t, journal.Event{Type: journal.TypeWarning, Value: inbound, Window: window})
	return true
}

// Open reports whether the evaluation becomes a Neighbor_Traffic round:
// not inside ReportRateLimit of the last one (sinceRound: how long ago
// that opened, +Inf for never), nor without a view of the buddy group —
// list is the neighbor list held from the suspect (held false: none),
// listAge its age, and a stale list is no view. list is a set; each
// driver's list store keeps it one. The members asked are list without
// the observer and the suspect. own is the observer's measurement of the
// closed window; the verdict uses it however late the reports arrive.
func (r *Round) Open(own Report, list []PeerID, held bool, listAge, sinceRound float64) bool {
	if sinceRound < r.cfg.ReportRateLimit || !held || (r.cfg.StaleAfter > 0 && listAge > r.cfg.StaleAfter) {
		return false
	}
	r.own = own
	for _, m := range list {
		if m != r.observer && m != r.suspect {
			r.asked = append(r.asked, m)
		}
	}
	r.seats = append(r.seats, make([]seat, len(r.asked))...)
	r.note(r.t, journal.Event{Type: journal.TypeNTRequest, K: len(r.asked), Window: r.window})
	return true
}

// Began returns the time the evaluation began.
func (r *Round) Began() float64 { return r.t }

// Asked returns the members of the open round in list order; the slice
// is the round's own, valid until the next Begin.
func (r *Round) Asked() []PeerID { return r.asked }

// Silent returns how many asked members have not reported.
func (r *Round) Silent() int { return len(r.asked) - r.seated }

// Report offers member's report, arrived at t, and reports whether it
// was seated. Each asked member votes once; a repeat, the suspect, the
// observer and anyone else not asked is refused.
func (r *Round) Report(t float64, member PeerID, rep Report) bool {
	i := r.next // a synchronous transport answers in the order asked
	if i >= len(r.asked) || r.asked[i] != member {
		if i = slices.Index(r.asked, member); i < 0 {
			return false
		}
	}
	if r.seats[i].got {
		return false
	}
	r.seats[i] = seat{rep: rep, t: t, got: true}
	r.seated++
	r.next = i + 1
	return true
}

// Deadline says the time to answer is over. final false: the driver
// could wait for another deadline, and a round whose every asked member
// is still silent is deferred once (done false). Otherwise the round
// closes: every seat is recorded in the order asked, nt_report at its
// arrival time or nt_timeout — a silent member scores zero and keeps its
// seat (§3.3), so k is the group asked — and the indicators meet CT.
func (r *Round) Deadline(t float64, final bool) (v Verdict, done bool) {
	silent := r.Silent()
	if !final && !r.deferred && silent > 0 && r.seated == 0 {
		r.deferred = true
		r.note(t, journal.Event{Type: journal.TypeNTDefer, Value: float64(silent)})
		return Verdict{}, false
	}
	others := r.others[:0]
	for i, m := range r.asked {
		if st := &r.seats[i]; st.got {
			others = append(others, st.rep)
			r.note(st.t, journal.Event{Type: journal.TypeNTReport, Member: int64(m)})
		} else {
			r.note(t, journal.Event{Type: journal.TypeNTTimeout, Member: int64(m)})
		}
	}
	r.others = others
	g, s, k := ComputeIndicators(r.cfg.Q0, r.own, others, silent)
	r.note(t, journal.Event{Type: journal.TypeIndicator, G: g, S: s, K: k, Window: r.window})
	return Verdict{
		Observer: r.observer, Suspect: r.suspect, G: g, S: s, K: k, Window: r.window,
		Cut: g > r.cfg.CutThreshold || s > r.cfg.CutThreshold,
	}, true
}

// RecordCut records that the driver carried out v at t; it reads none of
// the round's evaluation state, which may have moved on.
func (r *Round) RecordCut(t float64, v Verdict) {
	r.jr.Record(journal.Event{
		T: t, Type: journal.TypeCut, Node: int64(v.Observer), Peer: int64(v.Suspect),
		G: v.G, S: v.S, Window: v.Window,
	})
}
