// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component of the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: a single
// 64-bit seed must determine an entire multi-node, multi-trial simulation.
// The package therefore implements its own xoshiro256** generator (public
// domain algorithm by Blackman and Vigna) seeded through SplitMix64, rather
// than relying on math/rand whose stream layout is not guaranteed across Go
// releases. Source streams are cheap to fork: each node of a simulated
// network owns an independent stream derived from the run seed, so changing
// the behaviour of one node never perturbs the random choices of another.
package rng

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo-random generator.
// It is not safe for concurrent use; fork independent streams with Split.
type Source struct {
	s [4]uint64
}

// ErrEmptyRange reports an invalid request for a random value from an empty
// range, e.g. IntN(0).
var ErrEmptyRange = errors.New("rng: empty range")

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand seeds into full xoshiro states.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
// Distinct seeds yield (with overwhelming probability) non-overlapping,
// uncorrelated streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the stream determined by seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// A theoretically possible all-zero state would lock the generator.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split forks an independent child stream. The child is seeded from the
// parent's output, so calling Split repeatedly yields a deterministic family
// of pairwise-independent streams. The parent advances by two outputs.
func (r *Source) Split() *Source {
	a := r.Uint64()
	b := r.Uint64()
	child := New(a ^ bits.RotateLeft64(b, 32))
	return child
}

// SplitN forks n independent child streams.
func (r *Source) SplitN(n int) []*Source {
	children := make([]*Source, n)
	for i := range children {
		children[i] = r.Split()
	}
	return children
}

// Uint64N returns a uniform value in [0, n). It panics if n == 0 since that
// indicates a programming error rather than a runtime condition.
func (r *Source) Uint64N(n uint64) uint64 {
	if n == 0 {
		panic(ErrEmptyRange)
	}
	// Lemire's nearly-divisionless unbiased bounded generation.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) IntN(n int) int {
	if n <= 0 {
		panic(fmt.Errorf("rng: IntN(%d): %w", n, ErrEmptyRange))
	}
	return int(r.Uint64N(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped, matching the saturating semantics of probabilities such as
// min(1/2, |A(u)|/2^i) used throughout the discovery algorithms.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with rate lambda.
// It panics if lambda <= 0.
func (r *Source) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic(fmt.Errorf("rng: ExpFloat64 rate %v must be positive", lambda))
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// NormFloat64 returns a standard normally distributed value using the polar
// Box-Muller transform.
func (r *Source) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// UniformFloat64 returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *Source) UniformFloat64(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Errorf("rng: UniformFloat64 bounds inverted: [%v, %v)", lo, hi))
	}
	return lo + float64((hi-lo)*r.Float64())
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.IntN(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, via a Fisher-Yates shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		swap(i, j)
	}
}

// PickOne returns a uniformly selected index in [0, n), or an error if n <= 0.
// It is the error-returning counterpart of IntN for call sites where an empty
// range is a data condition (e.g. empty available channel set) rather than a
// bug.
func (r *Source) PickOne(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("rng: pick from %d elements: %w", n, ErrEmptyRange)
	}
	return r.IntN(n), nil
}

// jumpPoly is the xoshiro256** jump polynomial: applying Jump advances the
// state by 2^128 steps, yielding a stream guaranteed not to overlap the
// parent's next 2^128 outputs (Blackman & Vigna's published constants).
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// Jump advances the source by 2^128 steps in-place. Use it to partition one
// seeded stream into provably non-overlapping sections (Split gives
// statistical independence; Jump gives a structural guarantee).
func (r *Source) Jump() {
	var s [4]uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s[0] ^= r.s[0]
				s[1] ^= r.s[1]
				s[2] ^= r.s[2]
				s[3] ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = s
}

// JumpedCopy returns a new source 2^128 steps ahead of r, leaving r itself
// advanced past the jump as well (both now produce non-overlapping output
// relative to the original position).
func (r *Source) JumpedCopy() *Source {
	child := &Source{s: r.s}
	child.Jump()
	return child
}
