package sim

import (
	"bytes"
	"testing"

	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
)

func journalRunConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 250
	cfg.NumAgents = 2
	cfg.AttackStartSec = 120
	cfg.DurationSec = 480
	cfg.PoliceEnabled = true
	cfg.Faults = &faults.Schedule{
		Partitions: []faults.PartitionEvent{{StartSec: 200, EndSec: 320, Peers: []int{5, 6, 7, 8}}},
	}
	return cfg
}

// TestJournalDeterministicAcrossRuns is the acceptance gate for the
// observability plane: two identical-seed runs must journal identical
// bytes. This covers the protocol sweep's iteration order, the
// partition tracker (which must walk the event's peer slice, not its
// member map) and the NDJSON encoding.
func TestJournalDeterministicAcrossRuns(t *testing.T) {
	render := func() []byte {
		jr := journal.New(1 << 16)
		cfg := journalRunConfig()
		cfg.Journal = jr
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := jr.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("journal empty: the run recorded no events")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("identical-seed journals differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestJournalLifecycleEvents checks the recorded stream actually walks
// the DD-POLICE lifecycle: attack onset, warning crossings, NT rounds,
// indicators, cuts, and the scheduled partition/heal pair.
func TestJournalLifecycleEvents(t *testing.T) {
	jr := journal.New(1 << 16)
	cfg := journalRunConfig()
	cfg.Journal = jr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 {
		t.Fatal("run produced no detections; lifecycle test needs cuts")
	}
	seen := map[string]int{}
	var prevSeq uint64
	for _, e := range jr.Events() {
		if e.Seq <= prevSeq {
			t.Fatalf("sequence not increasing: %d after %d", e.Seq, prevSeq)
		}
		prevSeq = e.Seq
		seen[e.Type]++
	}
	for _, typ := range []string{
		journal.TypeAttackStart, journal.TypeWarning, journal.TypeNTRequest,
		journal.TypeNTReport, journal.TypeIndicator, journal.TypeCut,
		journal.TypePartition, journal.TypeHeal,
	} {
		if seen[typ] == 0 {
			t.Errorf("no %q events recorded (saw %v)", typ, seen)
		}
	}
	if seen[journal.TypeAttackStart] != cfg.NumAgents {
		t.Errorf("attack_start events = %d, want %d", seen[journal.TypeAttackStart], cfg.NumAgents)
	}
	// The journal is the record of the run's decisions: one cut record
	// per detection, and ground truth recoverable from it alone — a cut
	// is of a bad peer exactly when its suspect has an attack_start.
	if seen[journal.TypeCut] != res.Detections {
		t.Errorf("cut events = %d, Result.Detections = %d", seen[journal.TypeCut], res.Detections)
	}
	agents := map[int64]bool{}
	cutAgent := false
	// Per suspect, warning must precede the first cut.
	firstWarn := map[int64]uint64{}
	for _, e := range jr.Events() {
		switch e.Type {
		case journal.TypeAttackStart:
			agents[e.Peer] = true
		case journal.TypeWarning:
			if _, ok := firstWarn[e.Peer]; !ok {
				firstWarn[e.Peer] = e.Seq
			}
		case journal.TypeCut:
			cutAgent = cutAgent || agents[e.Peer]
			if e.G == 0 && e.S == 0 {
				continue // verify-list cut, no preceding warning
			}
			w, ok := firstWarn[e.Peer]
			if !ok || w > e.Seq {
				t.Fatalf("cut of %d at seq %d without earlier warning", e.Peer, e.Seq)
			}
		}
	}
	if !cutAgent {
		t.Error("no cut names a peer the journal's attack_start records mark as an agent")
	}
}
