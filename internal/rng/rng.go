// Package rng provides a small, deterministic random-number substrate for
// the simulator. All stochastic behaviour in cosched flows through this
// package so that experiments are reproducible bit-for-bit across runs and
// Go versions (the stdlib generators do not guarantee stable streams).
//
// The generator is xoshiro256**, seeded through splitmix64 as recommended
// by its authors. Sources can be split into independent child streams,
// which the experiment harness uses to give every replicate its own
// deterministic stream derived from a master seed.
package rng

import "math"

// Source is a deterministic pseudo-random source (xoshiro256**).
// It is not safe for concurrent use; fork independent streams with Split.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns the next output.
// It is used for seeding and for deriving child stream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via splitmix64.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the source to the stream determined by seed.
func (r *Source) Reseed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro256** requires a non-zero state; splitmix64 of any seed is
	// astronomically unlikely to produce all zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// SubSeed derives a stream seed from a master seed and a path of stream
// identifiers (e.g. a named stream kind, a grid-point index, a replicate
// index). The derivation is a splitmix64 absorption of every path
// element, so seeds are deterministic, order-sensitive, and well spread
// even for adjacent integer paths. The campaign runner uses it to give
// every run unit its own stream regardless of which shard executes it.
func SubSeed(master uint64, path ...uint64) uint64 {
	st := master
	h := splitmix64(&st)
	for _, p := range path {
		st = h ^ p
		h = splitmix64(&st)
	}
	return h
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

// Split returns a new Source whose stream is independent of r's
// continuation. The child is derived from the parent's next output, so a
// parent seeded identically always yields the same sequence of children.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1]; useful as input to
// logarithms without a zero guard.
func (r *Source) Float64Open() float64 {
	return (float64(r.Uint64()>>11) + 1) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's unbiased bounded generation.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exponential returns an exponentially distributed variate with the given
// rate (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Weibull returns a Weibull variate with the given shape k and scale λ,
// via inversion. It panics unless both parameters are positive.
func (r *Source) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	return scale * math.Pow(-math.Log(r.Float64Open()), 1/shape)
}

// Normal returns a standard normal variate (Box–Muller, polar form).
func (r *Source) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle randomizes the order of the first n elements using swap,
// mirroring the stdlib contract.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
