package core

import "math/bits"

// defaultActiveSetFrac is the crossover point of the receiver-driven
// kernels (flooding pull, lossy flooding): once the uninformed count
// drops below this fraction of n, the kernel stops scanning the full
// complement of the informed bitset every round and instead walks an
// explicitly maintained uninformed list, so a late round costs
// O(|uninformed|·deg) instead of O(n/64) word probes. Long
// sub-threshold runs — the regime the paper's flooding-time bounds
// actually describe — spend almost all rounds chasing a handful of
// stragglers, which is exactly where the list wins. Above the
// crossover the complement scan is already near-optimal (most words
// have uninformed bits) and the list would just add maintenance.
const defaultActiveSetFrac = 1.0 / 16

// activeSetFrac is defaultActiveSetFrac in production. Tests pin it to
// 0 (never activate: pure complement baseline) or 1 (activate from the
// first pull round) to prove the two enumeration strategies
// byte-identical; see SetActiveSetFracForTest.
var activeSetFrac = defaultActiveSetFrac

// SetActiveSetFracForTest overrides the active-set crossover fraction
// and returns a restore func. Test-only knob: results are
// byte-identical for every value, so production always runs the
// compile-time default.
func SetActiveSetFracForTest(frac float64) func() {
	old := activeSetFrac
	activeSetFrac = frac
	return func() { activeSetFrac = old }
}

// activeSet is the shrinking uninformed list of one engine run. The
// list is built once, by a single complement scan the first round past
// the crossover, and from then on compacted in place after every round
// — so it always holds exactly the uninformed nodes, ascending, and
// enumerating it visits the same nodes in the same order as the
// complement scan it replaces. Both kernels that use it only ever
// mutate the informed set inside their own rounds, and once the list is
// active every later round runs them (lossy flooding always does;
// flooding's snapshot path stays on pull), so the list can never go
// stale.
type activeSet struct {
	nodes  []int32
	active bool
}

// enabled reports whether the list drives this round's enumeration,
// building it from the informed words on the first round past the
// crossover. uninformed is the exact complement size — the engines
// track the informed count every round, so no extra popcount pass.
func (a *activeSet) enabled(words []uint64, n, uninformed int) bool {
	if a.active {
		return true
	}
	if float64(uninformed) >= activeSetFrac*float64(n) {
		return false
	}
	a.nodes = appendComplement(a.nodes[:0], words, n)
	a.active = true
	return true
}

// compact drops every node that became informed this round, keeping
// the survivors in ascending order: O(|list|), paid once per round,
// against the O(n/64) complement walk it replaces.
func (a *activeSet) compact(words []uint64) {
	kept := a.nodes[:0]
	for _, v := range a.nodes {
		if words[v>>6]&(1<<(uint(v)&63)) == 0 {
			kept = append(kept, v)
		}
	}
	a.nodes = kept
}

// appendComplement appends the ascending complement of the informed
// words over [0, n) to dst.
func appendComplement(dst []int32, words []uint64, n int) []int32 {
	for wi, w := range words {
		rem := ^w
		if rem == 0 {
			continue
		}
		base := wi * 64
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			rem &= rem - 1
			v := base + b
			if v >= n {
				break
			}
			dst = append(dst, int32(v))
		}
	}
	return dst
}
