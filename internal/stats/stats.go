// Package stats provides the statistical accumulators used by the
// DD-POLICE simulator and the repository benchmark: streaming moments
// (Welford) and exact quantiles over bounded samples. Histograms are
// internal/telemetry's, the one kind /metrics exports.
package stats

import (
	"sort"
)

// Welford accumulates a running mean in Welford's numerically stable
// single pass. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Sample is a bounded in-memory sample supporting exact quantiles.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample with the given initial capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// Add appends x.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
// It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}
