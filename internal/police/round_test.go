package police

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ddpolice/internal/journal"
)

// TestRoundLifecycle is the bad-peer-recognition lifecycle as one table:
// observer 1 judges suspect 2, whose list names the observer, members 3,
// 4 and 5, and the suspect itself. Each case is a script of the three
// events — window closed, reports arrived, deadlines passed — and the
// journal it must leave (type:member, or type:k where the record carries
// k), the verdict's k and cut, and which reports were seated.
func TestRoundLifecycle(t *testing.T) {
	const observer, suspect = PeerID(1), PeerID(2)
	list := []PeerID{1, 3, 4, 5, 2}
	// The suspect sent the observer 4000 and each member 4000 in the
	// window; nobody sent it anything: g = s = 40 with every report in.
	own := Report{Out: 0, In: 4000}
	honest := func(m PeerID) vote { return vote{member: m, rep: Report{Out: 0, In: 4000}, seated: true} }
	never := math.Inf(1)

	for _, tc := range []struct {
		name       string
		inbound    float64 // 0: the 4000 of own
		ownOut     float64 // what the observer sent the suspect
		unheld     bool
		listAge    float64
		sinceRound float64
		staleAfter float64 // 0: the default 600
		votes      []vote
		finals     []bool // one Deadline call each; all but the last must ask to wait

		opened  bool
		journal string
		k       int
		g, s    float64
		cut     bool
	}{
		{
			name: "full quorum", sinceRound: never,
			votes: []vote{honest(3), honest(4), honest(5)}, finals: []bool{false},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_report:3 nt_report:4 nt_report:5 indicator:4 cut",
			k:       4, g: 40, s: 40, cut: true,
		},
		{
			// Arrival order is the transport's; the record is in the order asked.
			name: "reports out of order", sinceRound: never,
			votes: []vote{honest(5), honest(3), honest(4)}, finals: []bool{false},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_report:3 nt_report:4 nt_report:5 indicator:4 cut",
			k:       4, g: 40, s: 40, cut: true,
		},
		{
			// One answer is a quorum: no deferral. The silent members keep
			// their seats, so k is the group asked, and every seat is
			// recorded in the order asked.
			name: "partial quorum", sinceRound: never,
			votes: []vote{honest(4)}, finals: []bool{false},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_timeout:3 nt_report:4 nt_timeout:5 indicator:4 cut",
			k:       4, g: 20, s: 40, cut: true,
		},
		{
			name: "all silent, a later deadline exists", sinceRound: never,
			finals:  []bool{false, false},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_defer nt_timeout:3 nt_timeout:4 nt_timeout:5 indicator:4 cut",
			k:       4, g: 10, s: 40, cut: true,
		},
		{
			name: "all silent, final deadline", sinceRound: never,
			finals:  []bool{true},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_timeout:3 nt_timeout:4 nt_timeout:5 indicator:4 cut",
			k:       4, g: 10, s: 40, cut: true,
		},
		{
			// Forged exculpation: huge Outgoing from the suspect, the
			// observer, a stranger, and a second helping from member 3.
			name: "duplicate, non-member and suspect reports refused", sinceRound: never,
			votes: []vote{
				honest(3),
				{member: 3, rep: Report{Out: 1e9}},
				{member: suspect, rep: Report{Out: 1e9}},
				{member: observer, rep: Report{Out: 1e9}},
				{member: 9, rep: Report{Out: 1e9}},
				honest(4), honest(5),
			},
			finals:  []bool{false},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_report:3 nt_report:4 nt_report:5 indicator:4 cut",
			k:       4, g: 40, s: 40, cut: true,
		},
		{
			// What the group sent the suspect exonerates it: 4 x 1300 in,
			// each neighbor forwarded the other three's plus 100 of its own.
			name: "honest forwarder", ownOut: 1300, sinceRound: never,
			votes: []vote{
				{member: 3, rep: Report{Out: 1300, In: 4000}, seated: true},
				{member: 4, rep: Report{Out: 1300, In: 4000}, seated: true},
				{member: 5, rep: Report{Out: 1300, In: 4000}, seated: true},
			},
			finals:  []bool{true},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_report:3 nt_report:4 nt_report:5 indicator:4",
			k:       4, g: 1, s: 1,
		},
		{
			name: "below the warning threshold", inbound: 500, sinceRound: never,
			journal: "",
		},
		{
			name: "rate limited", sinceRound: 49,
			journal: "warning_crossed",
		},
		{
			name: "rate limit expired", sinceRound: 50,
			finals: []bool{true}, votes: []vote{honest(3), honest(4), honest(5)},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_report:3 nt_report:4 nt_report:5 indicator:4 cut",
			k:       4, g: 40, s: 40, cut: true,
		},
		{
			name: "no list held", unheld: true, sinceRound: never,
			journal: "warning_crossed",
		},
		{
			name: "stale list", listAge: 601, sinceRound: never,
			journal: "warning_crossed",
		},
		{
			name: "old list, expiry off", listAge: 1e6, staleAfter: -1, sinceRound: never,
			finals: []bool{true}, votes: []vote{honest(3), honest(4), honest(5)},
			opened:  true,
			journal: "warning_crossed nt_request:3 nt_report:3 nt_report:4 nt_report:5 indicator:4 cut",
			k:       4, g: 40, s: 40, cut: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tc.staleAfter != 0 {
				cfg.StaleAfter = max(tc.staleAfter, 0)
			}
			jr := journal.New(64)
			r := NewRound(cfg, jr)
			inbound := own.In
			if tc.inbound != 0 {
				inbound = tc.inbound
			}
			own := Report{Out: tc.ownOut, In: own.In}
			if r.Warn(observer, suspect, 60, 1, inbound) {
				if got := r.Open(own, list, !tc.unheld, tc.listAge, tc.sinceRound); got != tc.opened {
					t.Fatalf("Open = %v, want %v", got, tc.opened)
				}
				if !tc.opened && len(r.Asked()) != 0 {
					t.Errorf("asked %v without opening", r.Asked())
				}
			}
			for _, v := range tc.votes {
				if got := r.Report(61, v.member, v.rep); got != v.seated {
					t.Errorf("Report(member %d) seated = %v, want %v", v.member, got, v.seated)
				}
			}
			for i, final := range tc.finals {
				v, done := r.Deadline(90+30*float64(i), final)
				if last := i == len(tc.finals)-1; done != last {
					t.Fatalf("deadline %d: done = %v, want %v", i, done, last)
				}
				if !done {
					continue
				}
				if v.K != tc.k || v.Cut != tc.cut || math.Abs(v.G-tc.g) > 1e-9 || math.Abs(v.S-tc.s) > 1e-9 {
					t.Errorf("verdict k=%d g=%v s=%v cut=%v, want k=%d g=%v s=%v cut=%v",
						v.K, v.G, v.S, v.Cut, tc.k, tc.g, tc.s, tc.cut)
				}
				if v.Cut {
					r.RecordCut(90+30*float64(i), v)
				}
			}
			if got := journalScript(jr.Events()); got != tc.journal {
				t.Errorf("journal\n got %s\nwant %s", got, tc.journal)
			}
		})
	}
}

// vote is one report offered to a round and whether it must be seated.
type vote struct {
	member PeerID
	rep    Report
	seated bool
}

// journalScript renders detection records as "type", "type:member" for
// the per-seat records and "type:k" for those that carry k.
func journalScript(events []journal.Event) string {
	var out []string
	for _, e := range events {
		switch {
		case e.Member != 0:
			out = append(out, fmt.Sprintf("%s:%d", e.Type, e.Member))
		case e.K != 0:
			out = append(out, fmt.Sprintf("%s:%d", e.Type, e.K))
		default:
			out = append(out, e.Type)
		}
	}
	return strings.Join(out, " ")
}

// TestRoundOwnReportIsTheOpeningWindows: the verdict may fall after the
// driver's windows rolled (the live verdict timer fires half a window
// after the opening and may be deferred past the next close). The round
// judges by the own report it was opened with, and stamps the opening
// window on the indicator, however late the reports and the deadline.
func TestRoundOwnReportIsTheOpeningWindows(t *testing.T) {
	jr := journal.New(16)
	r := NewRound(DefaultConfig(), jr)
	if !r.Warn(1, 2, 60, 7, 4000) {
		t.Fatal("4000 inbound did not cross the default warning threshold")
	}
	flood := Report{Out: 0, In: 4000}
	if !r.Open(flood, []PeerID{1, 3}, true, 0, math.Inf(1)) {
		t.Fatal("round did not open")
	}
	// A window later: the driver's counters now read a quiet window; the
	// member's report describes the flood window.
	r.Report(125, 3, Report{Out: 0, In: 4000})
	v, done := r.Deadline(150, false)
	want, _, _ := ComputeIndicators(100, flood, []Report{{Out: 0, In: 4000}}, 0)
	if !done || v.G != want || !v.Cut || v.Window != 7 {
		t.Fatalf("verdict %+v done=%v, want g=%v from the opening window's report, window 7", v, done, want)
	}
	events := jr.Events()
	if ind := events[len(events)-1]; ind.Type != journal.TypeIndicator || ind.Window != 7 || ind.T != 150 {
		t.Errorf("indicator record %+v, want window 7 at t=150", ind)
	}
	if rep := events[2]; rep.Type != journal.TypeNTReport || rep.T != 125 {
		t.Errorf("report record %+v, want its arrival time 125", rep)
	}
}
