// Package edgemeg implements the edge-Markovian evolving graph of
// Section 4 of the paper: every unordered node pair carries an
// independent two-state Markov chain with birth rate p (absent →
// present) and death rate q (present → absent). The unique stationary
// distribution for 0 < p, q < 1 makes each snapshot an Erdős–Rényi
// graph G(n, p̂) with p̂ = p/(p+q).
//
// Simulating Θ(n²) independent chains naively costs Θ(n²) coin flips
// per step. This package instead draws only the flips, by geometric
// skip sampling over the linearized pair-index space (the
// Batagelj–Brandes technique), which gives exactly the same
// distribution: births are enumerated by jumping between successes of
// a Bernoulli(p) process over absent pairs, and deaths by jumping
// between successes of a Bernoulli(q) process over the current edge
// list. A step costs expected O(p·n² + q·|E_t|) draws and searches —
// the churn — plus one bulk copy of the edges that did not change.
// Each skip is O(1): the logarithm of 1−p (or 1−q) is taken once per
// loop (rng.GeometricLog), and ascending birth candidates are decoded
// to pairs by walking the rows, with PairAt's square root only after a
// jump past the next row. Every buffer is presized from its Bernoulli
// count, so a fresh model grows none by append.
package edgemeg

import "math"

// PairCount returns the number of unordered node pairs C(n, 2).
func PairCount(n int) int64 {
	return int64(n) * int64(n-1) / 2
}

// PairIndex maps an unordered pair {u, v} with 0 ≤ u < v < n to its
// rank in the lexicographic enumeration of all pairs:
//
//	(0,1), (0,2), …, (0,n-1), (1,2), …, (n-2,n-1)
//
// The rank is u·n − u(u+1)/2 + (v−u−1). It panics unless 0 ≤ u < v < n.
func PairIndex(n, u, v int) int64 {
	if u < 0 || u >= v || v >= n {
		panic("edgemeg: PairIndex needs 0 <= u < v < n")
	}
	uu := int64(u)
	return uu*int64(n) - uu*(uu+1)/2 + int64(v-u-1)
}

// PairAt inverts PairIndex: it returns the pair {u, v} with rank k in
// the lexicographic enumeration. It panics if k is out of range.
func PairAt(n int, k int64) (u, v int) {
	if k < 0 || k >= PairCount(n) {
		panic("edgemeg: pair rank out of range")
	}
	// Row u starts at base(u) = u·n − u(u+1)/2 = u(2n−u−1)/2; solve
	// base(u) ≤ k for the largest such u with a float estimate, then
	// correct by scanning at most a couple of steps (the estimate is
	// within 1 for all feasible n).
	nf := float64(n)
	est := math.Floor(nf - 0.5 - math.Sqrt((nf-0.5)*(nf-0.5)-2*float64(k)))
	if est < 0 || math.IsNaN(est) {
		est = 0
	}
	u = int(est)
	if u > n-2 {
		u = n - 2
	}
	for u > 0 && rowBase(n, u) > k {
		u--
	}
	for u < n-2 && rowBase(n, u+1) <= k {
		u++
	}
	v = u + 1 + int(k-rowBase(n, u))
	return u, v
}

// rowBase returns the rank of pair (u, u+1), the first pair of row u.
func rowBase(n, u int) int64 {
	uu := int64(u)
	return uu*int64(n) - uu*(uu+1)/2
}

// packPair encodes (u, v) with u < v into a single uint64 key whose
// natural ordering equals the lexicographic pair ordering (and hence
// the PairIndex ordering).
func packPair(u, v int) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// unpackPair decodes a packPair key.
func unpackPair(key uint64) (u, v int) {
	return int(key >> 32), int(uint32(key))
}
