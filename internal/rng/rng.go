// Package rng provides a fast, deterministic random number generator and
// the distribution samplers used throughout the DD-POLICE simulator.
//
// Simulation reproducibility is a hard requirement: every experiment in
// the paper is regenerated from a seed, and parallel replicas must not
// share generator state. Source implements xoshiro256** (Blackman &
// Vigna), seeded through SplitMix64 so that small or correlated seeds
// still produce well-mixed streams. Split derives independent child
// streams for parallel replicas.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the generator state from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split returns a new Source whose stream is independent of r for all
// practical purposes. It advances r.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// SubSeed derives a substream seed from a base seed and a coordinate
// vector by chaining the SplitMix64 finalizer over the coordinates. It
// is a pure function: unlike Split it consumes no generator state, so
// the derivation does not depend on the order in which substreams are
// requested — any worker can compute the seed for coordinate (a, b, c)
// and get the same value. Distinct coordinate vectors (including
// different orderings of the same values) yield decorrelated seeds.
func SubSeed(seed uint64, dims ...uint64) uint64 {
	z := mix64(seed + 0x9e3779b97f4a7c15)
	for _, d := range dims {
		z = mix64(z + 0x9e3779b97f4a7c15*d + 0x2545f4914f6cdd1d)
	}
	return z
}

// mix64 is the SplitMix64 output finalizer (Vigna), a strong 64-bit
// mixing bijection.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-
// shift rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n // (2^64 - n) mod n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate lambda
// (mean 1/lambda). It panics if lambda <= 0.
func (r *Source) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: ExpFloat64 with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / lambda
}

// Poisson returns a Poisson variate with the given mean. For small
// means it uses Knuth's product method; for large means a normal
// approximation with continuity correction, which is accurate to well
// under the simulator's noise floor for mean >= 30.
func (r *Source) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		l := math.Exp(-mean)
		k, p := 0, 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
}

// LogNormal returns a log-normal variate parameterized by the desired
// mean and standard deviation of the *resulting* distribution (not of
// the underlying normal). This matches how the paper specifies peer
// lifetimes ("the mean of the distribution is 10 minutes, the variance
// half of the mean").
func (r *Source) LogNormal(mean, stddev float64) float64 {
	if mean <= 0 {
		panic("rng: LogNormal with non-positive mean")
	}
	if stddev <= 0 {
		return mean
	}
	cv2 := (stddev / mean) * (stddev / mean)
	sigma2 := math.Log(1 + cv2)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64())
}
