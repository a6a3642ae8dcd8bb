package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public call it names. Times are nanoseconds since the
// recorder's epoch; parent indexes the span that was open on the same
// recorder when this one began (-1 for a root).
type span struct {
	name   uint16
	parent int32
	start  int64
	end    int64
}

// recorder keeps spans in memory until the run ends. It is owned by
// one goroutine: concurrent load generators each get their own (see
// fork) and are merged for output, so recording takes no lock. A nil
// recorder records nothing, which is how the untraced paths share code
// with the traced ones.
type recorder struct {
	workload string
	epoch    time.Time
	names    []string
	index    map[string]uint16
	spans    []span
	open     int32 // innermost open span, -1 at top level
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now(), index: map[string]uint16{}, open: -1}
}

// fork returns an empty recorder sharing r's epoch, for another
// goroutine of the same workload.
func (r *recorder) fork() *recorder {
	if r == nil {
		return nil
	}
	return &recorder{workload: r.workload, epoch: r.epoch, index: map[string]uint16{}, open: -1}
}

func (r *recorder) nameID(name string) uint16 {
	id, ok := r.index[name]
	if !ok {
		id = uint16(len(r.names))
		r.names = append(r.names, name)
		r.index[name] = id
	}
	return id
}

// begin opens a span as a child of the innermost open one and returns
// its handle for end.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: r.nameID(name), parent: r.open, start: int64(time.Since(r.epoch))})
	r.open = id
	return id
}

// end closes the span begin returned and reports its duration.
func (r *recorder) end(id int32) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[id]
	s.end = int64(time.Since(r.epoch))
	r.open = s.parent
	return time.Duration(s.end - s.start)
}

// rename relabels a closed span: a FloodQuery span is only known to be
// a hit, a build or a fallback once the cache counters have been read
// after the call.
func (r *recorder) rename(id int32, name string) {
	if r != nil {
		r.spans[id].name = r.nameID(name)
	}
}

// mergeRecorders concatenates the spans of several recorders of one
// run into a recorder that is only read (stats, output).
func mergeRecorders(recs []*recorder) *recorder {
	out := newRecorder("")
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := int32(len(out.spans))
		for _, s := range r.spans {
			s.name = out.nameID(r.names[s.name])
			if s.parent >= 0 {
				s.parent += base
			}
			out.spans = append(out.spans, s)
		}
	}
	return out
}

// spanStat is the per-name aggregate the per-layer metrics read.
type spanStat struct {
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"` // inclusive
	SelfNs  int64   `json:"self_ns"`  // inclusive minus child cover
	P50Ns   int64   `json:"p50_ns"`
	MaxNs   int64   `json:"max_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its direct children cover. Children may overlap
// each other or (after a clock step) stick out of the parent, so the
// cover is the clipped union, not the sum.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		if len(kids) == 0 { // most spans are leaves: millions of them on steady-2k
			self[i] = s.end - s.start
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		cover, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				cover += hi - lo
				reach = hi
			}
		}
		self[i] = (s.end - s.start) - cover
	}
	return self
}

// stats aggregates the recorder's spans by name.
func (r *recorder) stats() map[string]spanStat {
	out := map[string]spanStat{}
	if r == nil {
		return out
	}
	self := selfTimes(r.spans)
	durs := map[uint16][]int64{}
	for i, s := range r.spans {
		st := out[r.names[s.name]]
		d := s.end - s.start
		st.Count++
		st.TotalNs += d
		st.SelfNs += self[i]
		if d > st.MaxNs {
			st.MaxNs = d
		}
		out[r.names[s.name]] = st
		durs[s.name] = append(durs[s.name], d)
	}
	for id, ds := range durs {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		st := out[r.names[id]]
		st.P50Ns = ds[len(ds)/2]
		st.MeanNs = float64(st.TotalNs) / float64(st.Count)
		out[r.names[id]] = st
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" record; the file
// loads in chrome://tracing and Perfetto.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeChromeTrace writes every recorder's spans as one trace-event
// array, one thread lane per recorder.
func writeChromeTrace(w io.Writer, recs []*recorder) error {
	events := []traceEvent{}
	for tid, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.spans {
			parent := ""
			if s.parent >= 0 {
				parent = r.names[r.spans[s.parent].name]
			}
			events = append(events, traceEvent{
				Name: r.names[s.name], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: tid + 1,
				Args: map[string]string{"workload": r.workload, "parent": parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(events)
}
