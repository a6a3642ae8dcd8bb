package rng

import "math"

// Zipf samples ranks 1..N with probability proportional to rank^-s.
// It is used for the query-popularity model: measurements of Gnutella
// query traces ([16] in the paper) show a Zipf-like popularity curve.
//
// The sampler uses rejection-inversion (Hörmann & Derflinger), which is
// O(1) per sample for any s >= 0, s != 1 handled too.
type Zipf struct {
	src              *Source
	n                uint64
	s                float64
	oneMinusS        float64
	oneOverOneMinusS float64
	hIntegralX1      float64
	hIntegralN       float64
	threshold        float64
}

// NewZipf creates a Zipf sampler over ranks [1, n] with exponent s >= 0.
// It panics if n == 0 or s < 0.
func NewZipf(src *Source, n uint64, s float64) *Zipf {
	if n == 0 {
		panic("rng: Zipf with zero n")
	}
	if s < 0 {
		panic("rng: Zipf with negative exponent")
	}
	z := &Zipf{src: src, n: n, s: s, oneMinusS: 1 - s}
	if z.oneMinusS != 0 {
		z.oneOverOneMinusS = 1 / z.oneMinusS
	}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.threshold = 2 - z.helper1inv(z.hIntegral(2.5)-z.h(2))
	return z
}

// Clone returns a sampler with z's constants and its own copy of z's
// source at its current position: the two then draw the same ranks
// without moving each other.
func (z *Zipf) Clone() *Zipf {
	c, src := *z, *z.src
	c.src = &src
	return &c
}

// h is the (unnormalized) density x^-s.
func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

// hIntegral is the antiderivative of h.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

// helper2 computes (exp(x)-1)/x with a stable series near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x/2*(1+x/3*(1+x/4))
}

// helper1inv computes the inverse used in rejection-inversion:
// given t, return x with hIntegral(x) == t (in shifted form).
func (z *Zipf) helper1inv(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a stable series near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x/2*(1-x/3*(1-x/4))
}

// Rank draws a rank in [1, n], rank 1 being the most popular.
func (z *Zipf) Rank() uint64 {
	for {
		u := z.hIntegralN + z.src.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.helper1inv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.threshold || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k)
		}
	}
}

// ZipfWeights returns the normalized probability of each rank 1..n under
// exponent s. Useful for replication placement and analytic checks.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		w[i] = math.Exp(-s * math.Log(float64(i+1)))
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
