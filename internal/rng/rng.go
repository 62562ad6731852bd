// Package rng provides a fast, deterministic pseudo-random number
// generator for simulations, based on xoshiro256++ seeded through
// SplitMix64.
//
// Every simulation entity (a sweep job, a repetition, a Markov chain)
// owns its own *RNG so that experiments are reproducible and safe to run
// in parallel: generators derived with Split from a common seed produce
// statistically independent streams without synchronization.
//
// The package also provides the distribution samplers the simulators
// need: uniform integers, permutations, Bernoulli trials, and the
// geometric "skip" sampler used to iterate over huge implicit index
// spaces (such as the Θ(n²) potential edges of an edge-Markovian graph)
// in expected time proportional to the number of successes.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256++ pseudo-random number generator.
//
// The zero value is not usable; construct instances with New or Split.
// An RNG must not be shared between goroutines without external locking;
// use Split to derive independent generators instead.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a single word seed into the xoshiro state and to
// derive child seeds in Split.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed.
// Distinct seeds yield independent-looking streams; the same seed always
// yields the same stream.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero words from any seed, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// Split derives a new generator whose stream is independent of the
// parent's future output. It consumes one value from the parent, so
// repeated calls yield distinct children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// SplitN derives n independent child generators (see Split).
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's nearly
// divisionless algorithm with a rejection step, so the result is exactly
// uniform. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// 128-bit multiply high: (x * n) >> 64 maps x uniformly to [0, n)
	// with a small bias that the rejection loop removes.
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs uniformly at random in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct uniform values from [0, n) in unspecified
// order. It panics if k > n or k < 0. For k close to n it shuffles; for
// small k it uses rejection against a set.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample called with k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*3 >= n {
		p := r.Perm(n)
		return p[:k]
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials; i.e. a sample of the geometric
// distribution on {0, 1, 2, ...} with success probability p.
//
// It is the building block of skip sampling: to enumerate the successes
// among N implicit trials, repeatedly jump ahead by Geometric(p)+1.
// It panics if p <= 0 or p > 1.
func (r *RNG) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	return r.GeometricLog(math.Log1p(-p))
}

// GeometricLog is Geometric(p) for a precomputed l = math.Log1p(-p):
// the same draws and the same samples, without the logarithm per call,
// for skip loops that draw many times at one p. l = −Inf (p = 1)
// returns 0 without drawing. l must be negative; it is not checked.
func (r *RNG) GeometricLog(l float64) int64 {
	if math.IsInf(l, -1) {
		return 0
	}
	u := r.Float64()
	// Guard against u == 0, for which log would be -Inf.
	for u == 0 {
		u = r.Float64()
	}
	g := math.Floor(math.Log(u) / l)
	if g < 0 {
		return 0
	}
	if g > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(g)
}

// Binomial returns a sample of Binomial(n, p), the number of successes in
// n independent Bernoulli(p) trials. It runs in O(np+1) expected time via
// geometric skips, which is fast in the sparse regimes the simulators
// use. It panics if n < 0 or p outside [0,1].
func (r *RNG) Binomial(n int64, p float64) int64 {
	if n < 0 || p < 0 || p > 1 {
		panic("rng: Binomial parameters out of range")
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	flip := false
	if p > 0.5 {
		// Count failures instead so the skip loop stays short.
		p = 1 - p
		flip = true
	}
	var count, i int64
	for {
		i += r.Geometric(p) + 1
		if i > n {
			break
		}
		count++
	}
	if flip {
		return n - count
	}
	return count
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// NormFloat64 returns a standard normal sample (Box–Muller transform).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// SeedFor derives a deterministic child seed from a base seed and a job
// index. Sweep harnesses use it to give every job its own independent
// stream regardless of scheduling order, keeping parallel experiments
// exactly reproducible.
func SeedFor(base uint64, idx int) uint64 {
	s := base + 0x9e3779b97f4a7c15*uint64(idx+1)
	return splitMix64(&s)
}

// mixStart is Mix's initial state: the √2 fraction, an arbitrary
// non-zero start.
const mixStart = 0x6a09e667f3bcc909

// absorb folds one word into a Mix state (SplitMix64 absorption).
func absorb(h, w uint64) uint64 {
	h ^= w
	return splitMix64(&h)
}

// Mix hashes a sequence of words into one well-scrambled seed
// (SplitMix64 absorption). It is the keying primitive of counter-based
// streams: seeding an RNG with Mix(base, id, t) gives every (entity,
// time) pair its own stream that is a pure function of identity — never
// of iteration order, shard layout, or worker count. The gossip engines
// key every per-node random decision this way.
func Mix(words ...uint64) uint64 {
	h := uint64(mixStart)
	for _, w := range words {
		h = absorb(h, w)
	}
	return h
}

// Streams is the family of counter streams (base, ·, ·) of one run:
// Mix's absorption of base, done once. Hot loops that derive a stream
// per (node, round) take a Streams once per run, so each draw pays the
// two remaining absorptions and the Seed expansion only.
type Streams struct{ h uint64 }

// StreamsOf returns the counter streams keyed by base.
func StreamsOf(base uint64) Streams {
	return Streams{absorb(mixStart, base)}
}

// At returns a generator for the stream keyed (base, id, t): the same
// words as At(base, id, t), i.e. Seed(Mix(base, id, t)). The RNG is
// returned by value so per-node streams in hot loops stay
// allocation-free.
func (s Streams) At(id, t uint64) RNG {
	var r RNG
	r.Seed(absorb(absorb(s.h, id), t))
	return r
}

// At returns a generator for the stream keyed by (base, id, t) — see
// Mix. Loops that derive many streams of one base take StreamsOf(base)
// once instead.
func At(base, id, t uint64) RNG {
	return StreamsOf(base).At(id, t)
}
