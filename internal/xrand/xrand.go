// Package xrand provides a small, fast, deterministic pseudo-random number
// generator for simulations and workload generation.
//
// The generator is xoshiro256**, seeded through splitmix64 so that any
// 64-bit seed (including 0) yields a well-mixed state. Streams derived with
// Split are independent for all practical simulation purposes, which lets
// each network terminal or experiment own a private source while keeping
// whole-run determinism from a single root seed.
package xrand

import (
	"math"
	"math/bits"
)

// Source is a deterministic PRNG. It is not safe for concurrent use; derive
// per-goroutine sources with Split.
type Source struct {
	s [4]uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a source seeded from seed.
func New(seed uint64) *Source {
	var src Source
	x := seed
	for i := range src.s {
		src.s[i] = splitmix64(&x)
	}
	return &src
}

// Split derives an independent child source from s, keyed by id. The parent
// state is not advanced, so Split(i) is a pure function of (seed, id).
func (s *Source) Split(id uint64) *Source {
	x := s.s[0] ^ (s.s[1] << 1) ^ (s.s[2] << 2) ^ (s.s[3] << 3) ^ (id * 0x9e3779b97f4a7c15)
	var c Source
	for i := range c.s {
		c.s[i] = splitmix64(&x)
	}
	return &c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	r := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return r
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	un := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Threshold converts a Bool probability into the integer form FirstBelow
// takes: Float64() < p compares m/2^53 against p for the 53-bit integer m a
// draw yields, and m/2^53 < p ⇔ m < ceil(p·2^53) because m is an integer and
// p·2^53 is exact. p <= 0 maps to 0 and p >= 1 to 2^53, the two values for
// which FirstBelow, like Bool, draws nothing.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// FirstBelow is max consecutive Bool(p) calls in one, for thresh =
// Threshold(p): it returns the index of the first draw that succeeds, or -1
// after max failures, having consumed exactly the draws those calls would
// have — index+1 on success, max on failure, none at all when p <= 0 or
// p >= 1. The generator state lives in locals for the length of the batch.
func (s *Source) FirstBelow(thresh uint64, max int) int {
	if thresh == 0 || max <= 0 {
		return -1
	}
	if thresh >= 1<<53 {
		return 0
	}
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	k := -1
	for i := 0; i < max; i++ {
		r := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if r>>11 < thresh {
			k = i
			break
		}
	}
	s.s = [4]uint64{s0, s1, s2, s3}
	return k
}

// Perm fills p with a uniformly random permutation of [0, len(p)).
func (s *Source) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
