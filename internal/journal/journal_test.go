package journal

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"ddpolice/internal/telemetry"
)

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	j.Record(Event{Type: TypeCut}) // must not panic
	if j.Len() != 0 || j.Dropped() != 0 || j.Events() != nil {
		t.Fatalf("nil journal not inert: len=%d dropped=%d", j.Len(), j.Dropped())
	}
	if got := j.Tail(5); len(got) != 0 {
		t.Fatalf("nil Tail = %v", got)
	}
	j.Tee(io.Discard)
	if err := j.Err(); err != nil {
		t.Fatalf("nil Err = %v", err)
	}
}

func TestJournalRingOverwritesOldest(t *testing.T) {
	j := New(4)
	for i := 1; i <= 10; i++ {
		j.Record(Event{T: float64(i), Type: TypeNTReport})
	}
	ev := j.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if j.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", j.Dropped())
	}
	tail := j.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 9 || tail[1].Seq != 10 {
		t.Fatalf("tail = %+v", tail)
	}
}

// TestJournalDroppedTelemetry: ring overflow must surface as the
// "journal.dropped" gauge so a /metrics scrape sees silent data loss.
func TestJournalDroppedTelemetry(t *testing.T) {
	j := New(4)
	reg := telemetry.New()
	j.AttachTelemetry(reg)
	gaugeVal := func() int64 {
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "journal.dropped" {
				return g.Value
			}
		}
		t.Fatal("journal.dropped gauge absent")
		return 0
	}
	if gaugeVal() != 0 {
		t.Fatalf("initial gauge = %d, want 0", gaugeVal())
	}
	for i := 0; i < 10; i++ {
		j.Record(Event{T: float64(i), Type: TypeNTReport})
	}
	if j.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", j.Dropped())
	}
	if gaugeVal() != 6 {
		t.Fatalf("gauge = %d, want 6", gaugeVal())
	}

	// Attaching late picks up drops that happened before the registry
	// existed.
	j2 := New(2)
	for i := 0; i < 5; i++ {
		j2.Record(Event{T: float64(i), Type: TypeShed})
	}
	reg2 := telemetry.New()
	j2.AttachTelemetry(reg2)
	for _, g := range reg2.Snapshot().Gauges {
		if g.Name == "journal.dropped" && g.Value != 3 {
			t.Fatalf("late-attach gauge = %d, want 3", g.Value)
		}
	}

	// Nil on either side must be a no-op.
	var nilJ *Journal
	nilJ.AttachTelemetry(reg)
	j.AttachTelemetry(nil)
	j.Record(Event{Type: TypeShed})
}

func TestEventsSince(t *testing.T) {
	j := New(4)
	for i := 1; i <= 10; i++ {
		j.Record(Event{T: float64(i), Type: TypeNTReport})
	}
	// Ring holds seq 7..10.
	for _, tc := range []struct {
		since uint64
		first uint64
		n     int
	}{
		{0, 7, 4}, {6, 7, 4}, {7, 8, 3}, {9, 10, 1}, {10, 0, 0}, {99, 0, 0},
	} {
		got := j.EventsSince(tc.since)
		if len(got) != tc.n {
			t.Fatalf("since=%d len = %d, want %d", tc.since, len(got), tc.n)
		}
		if tc.n > 0 && got[0].Seq != tc.first {
			t.Fatalf("since=%d first seq = %d, want %d", tc.since, got[0].Seq, tc.first)
		}
	}
	var nilJ *Journal
	if got := nilJ.EventsSince(0); len(got) != 0 {
		t.Fatalf("nil EventsSince = %v", got)
	}
}

func TestJournalNDJSONRoundTrip(t *testing.T) {
	j := New(16)
	var tee bytes.Buffer
	j.Tee(&tee)
	j.Record(Event{T: 61, Type: TypeWarning, Node: 3, Peer: 9, Value: 720, Window: 1})
	j.Record(Event{T: 61, Type: TypeIndicator, Node: 3, Peer: 9, G: 12.5, S: 0.8, K: 5, Window: 1})
	j.Record(Event{T: 61, Type: TypeCut, Node: 3, Peer: 9, G: 12.5, S: 0.8})

	var buf bytes.Buffer
	if err := j.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("NDJSON lines = %d, want 3\n%s", got, buf.String())
	}
	// A sink teed from the start of a journal that never wrapped is the
	// dump, byte for byte.
	if !bytes.Equal(tee.Bytes(), buf.Bytes()) {
		t.Fatalf("Tee stream differs from WriteNDJSON:\n%s\nvs\n%s", tee.String(), buf.String())
	}
	back, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := j.Events()
	if len(back) != len(want) {
		t.Fatalf("round trip len = %d, want %d", len(back), len(want))
	}
	for i := range back {
		if back[i] != want[i] {
			t.Fatalf("event %d round trip = %+v, want %+v", i, back[i], want[i])
		}
	}
}

// TestTeeOutlivesRing: the sink holds every record in sequence order
// however small the ring; the ring still serves its last few.
func TestTeeOutlivesRing(t *testing.T) {
	j := New(4)
	var sink bytes.Buffer
	j.Tee(&sink)
	for i := 1; i <= 100; i++ {
		j.Record(Event{T: float64(i), Type: TypeCut, Peer: int64(i)})
	}
	got, err := ReadNDJSON(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("sink holds %d records, want 100", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) || e.Peer != int64(i+1) {
			t.Fatalf("sink record %d = %+v, want seq and peer %d", i, e, i+1)
		}
	}
	if j.Len() != 4 || j.Dropped() != 96 {
		t.Fatalf("ring len = %d dropped = %d, want 4 and 96", j.Len(), j.Dropped())
	}
	if err := j.Err(); err != nil {
		t.Fatalf("Err = %v on a sink that never failed", err)
	}
}

// failingWriter accepts ok writes, then fails every later one.
type failingWriter struct {
	ok, calls int
	err       error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.ok {
		return 0, w.err
	}
	return len(p), nil
}

// TestTeeKeepsFirstError: a sink failure is neither swallowed nor
// overwritten, the sink is left alone after it, and the ring keeps
// recording.
func TestTeeKeepsFirstError(t *testing.T) {
	j := New(16)
	errDisk := errors.New("disk full")
	w := &failingWriter{ok: 2, err: errDisk}
	j.Tee(w)
	for i := 0; i < 5; i++ {
		j.Record(Event{Type: TypeCut})
		if want := i >= 2; (j.Err() != nil) != want {
			t.Fatalf("after record %d: Err = %v", i+1, j.Err())
		}
	}
	if err := j.Err(); !errors.Is(err, errDisk) {
		t.Fatalf("Err = %v, want the third write's error", err)
	}
	if w.calls != 3 {
		t.Fatalf("sink written %d times, want 3 (nothing after the failure)", w.calls)
	}
	if j.Len() != 5 {
		t.Fatalf("ring holds %d records, want 5", j.Len())
	}
}

// TestRecordAllocatesNothingWithoutSink pins the verdict-path cost:
// with no Tee sink, Record neither allocates nor encodes, while the
// ring fills and after it wraps.
func TestRecordAllocatesNothingWithoutSink(t *testing.T) {
	j := New(64)
	e := Event{T: 61, Type: TypeIndicator, Node: 3, Peer: 9, G: 12.5, S: 0.8, K: 5, Window: 1}
	if allocs := testing.AllocsPerRun(1000, func() { j.Record(e) }); allocs != 0 {
		t.Fatalf("Record allocates %v times per call without a sink", allocs)
	}
	if j.Dropped() == 0 {
		t.Fatal("the ring never wrapped (vacuous)")
	}
}

// TestJournalConcurrentWriters exercises Record/Events/Tail from many
// goroutines, with a Tee sink attached; run under -race this is the
// journal's data-race gate.
func TestJournalConcurrentWriters(t *testing.T) {
	j := New(256)
	var sink bytes.Buffer
	j.Tee(&sink)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Record(Event{T: float64(i), Type: TypeNTReport, Node: int64(w)})
				if i%64 == 0 {
					_ = j.Tail(8)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = j.Events()
			_ = j.Len()
			_ = j.Dropped()
		}
	}()
	wg.Wait()
	<-done
	if j.Len() != 256 {
		t.Fatalf("len = %d, want 256", j.Len())
	}
	if got := j.Dropped(); got != writers*per-256 {
		t.Fatalf("dropped = %d, want %d", got, writers*per-256)
	}
	ev := j.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("seq gap in ring: %d then %d", ev[i-1].Seq, ev[i].Seq)
		}
	}
	teed, err := ReadNDJSON(&sink)
	if err != nil || len(teed) != writers*per {
		t.Fatalf("sink holds %d records (%v), want %d", len(teed), err, writers*per)
	}
	for i, e := range teed {
		if e.Seq != uint64(i+1) {
			t.Fatalf("sink line %d has seq %d: lines out of sequence order", i+1, e.Seq)
		}
	}
}
