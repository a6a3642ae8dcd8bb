package journal

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadNDJSON drives the journal reader with arbitrary bytes: it must
// never panic, and any stream it accepts must survive write → read
// unchanged, event for event. `go test` runs the seed corpus; `go test
// -fuzz=FuzzReadNDJSON ./internal/journal` explores further.
func FuzzReadNDJSON(f *testing.F) {
	j := New(8)
	j.Record(Event{T: 61, Type: TypeWarning, Node: 3, Peer: 9, Value: 720, Window: 1})
	j.Record(Event{T: 61, Type: TypeIndicator, Node: 3, Peer: 9, G: 12.5, S: 0.8, K: 5, Window: 1})
	j.Record(Event{T: 61, Type: TypeCut, Node: 3, Peer: 9, G: 12.5, S: 0.8})
	j.Record(Event{T: 1.7e9, Type: TypeQueryIssue, Node: 1, Detail: "1a2b3c4d5e6f7081"})
	j.Record(Event{T: 1.7e9 + 0.01, Type: TypeHop, Node: 2, Peer: 1, Depth: 1, Detail: "1a2b3c4d5e6f7081"})
	j.Record(Event{T: 1.7e9 + 0.02, Type: TypeDelivery, Node: 2, Peer: 1, Depth: 1, Detail: "1a2b3c4d5e6f7081"})
	j.Record(Event{T: 1.7e9 + 0.03, Type: TypeCongestionDrop, Node: 4, Peer: 2, Depth: 2, Detail: "1a2b3c4d5e6f7081"})
	var seed bytes.Buffer
	if err := j.WriteNDJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("\n\n{\"seq\":1,\"t\":0,\"type\":\"nt_timeout\",\"member\":-4,\"detail\":\"\\u00e9\"}\r\n"))
	f.Add([]byte("{\"seq\":1}\nnot json\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// WriteNDJSON's encoding, without the ring restamping Seq.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				t.Fatalf("accepted event %+v does not encode: %v", e, err)
			}
		}
		back, err := ReadNDJSON(&buf)
		if err != nil {
			t.Fatalf("re-reading what was written: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(events) {
			t.Fatalf("%d events read back, want %d", len(back), len(events))
		}
		for i := range back {
			if back[i] != events[i] {
				t.Fatalf("event %d round trip = %+v, want %+v", i, back[i], events[i])
			}
		}
	})
}
