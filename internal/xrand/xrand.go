// Package xrand provides a small, deterministic pseudo-random number
// generator (PCG-XSH-RR 64/32) plus the distribution samplers the workload
// generators need: exponential inter-arrival gaps, Zipfian key popularity,
// and Bernoulli coin flips.
//
// We ship our own generator instead of math/rand so that every experiment
// cmd/freshbench runs replays bit-for-bit on any Go release: the streams are
// part of this repository's contract, not the standard library's.
package xrand

import "math"

// PCG is a PCG-XSH-RR 64/32 generator. The zero value is usable but every
// zero-valued PCG produces the same stream; use New for seeded streams.
// PCG is not safe for concurrent use; give each goroutine its own.
type PCG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns a generator seeded with seed on stream seq. Distinct seq
// values yield statistically independent streams for the same seed.
func New(seed, seq uint64) *PCG {
	p := &PCG{inc: seq<<1 | 1}
	p.state = p.state*pcgMult + p.inc
	p.state += seed
	p.state = p.state*pcgMult + p.inc
	return p
}

// Uint32 returns the next 32 uniformly distributed bits.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (p *PCG) Uint64() uint64 {
	return uint64(p.Uint32())<<32 | uint64(p.Uint32())
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PCG) Float64() float64 {
	// 53 random bits / 2^53.
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method on 64 bits would be
	// overkill here; modulo bias is ≤ n/2^64 which is negligible for the
	// n (≤ millions) used in this repo. Keep it simple and branch-free.
	return int(p.Uint64() % uint64(n))
}

// Bool returns true with probability prob.
func (p *PCG) Bool(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return p.Float64() < prob
}

// Exp returns an exponentially distributed sample with rate lambda
// (mean 1/λ). It panics if lambda <= 0.
func (p *PCG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exp with lambda <= 0")
	}
	u := p.Float64()
	// 1-u ∈ (0,1] so Log never sees 0.
	return -math.Log(1-u) / lambda
}

// Zipf samples ranks in [0, N) with probability proportional to
// 1/(rank+1)^s, via an inverted cumulative table. Table construction is
// O(N) once; sampling is O(log N).
type Zipf struct {
	cdf []float64
	rng *PCG
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0 drawing
// randomness from rng. It panics if n <= 0 or s < 0.
func NewZipf(rng *PCG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	if s < 0 {
		panic("xrand: NewZipf with s < 0")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, rng: rng}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample returns a rank in [0, N); rank 0 is the most popular.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	// Binary search for the first cdf entry ≥ u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of the given rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank < 0 || rank >= len(z.cdf) {
		return 0
	}
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

// Shuffle permutes the first n positions via swap using Fisher–Yates.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// SplitMix64 advances and hashes a seed; handy for deriving sub-seeds.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
