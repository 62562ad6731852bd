package core

import (
	"math/bits"

	"meg/internal/graph"
)

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
// KernelAuto flooding stays on pull), so the list can never go stale.
//
// On top of the list, the deterministic flooding pull adds a skip
// layer: an uninformed node can only gain an informed neighbor between
// two rounds if either a neighbor was newly informed in the previous
// round (tracked by marks, set from the newly list after every active
// round) or its own adjacency row changed — answered by the Mutable's
// per-row epoch stamps on the delta path, and never for static
// snapshots. A node with neither is provably still uninformed, so
// steady straggler rounds probe only the handful of candidates the
// churn and the frontier actually touched. The stamp test is an inline
// slice compare, not a call: with a few hundred stragglers and low
// churn the whole round is the candidate filter, and a per-node
// indirect call would cost as much as the degree-5 probe it skips.
// skipOn false disables the layer (full-rebuild dynamic snapshots,
// where rows may change arbitrarily, and the lossy kernels, whose
// per-round coin flips can succeed without any state change).
type activeSet struct {
	nodes  []int32
	active bool

	// skipOn arms the skip layer: the kernel may prove list nodes
	// unchanged and leave them unprobed.
	skipOn bool
	// stamps aliases the Mutable's per-row change stamps on the delta
	// path: node v's row was rebuilt by the last apply iff
	// stamps[v] == epoch() (conservative: extra trues are wasted
	// probes, never wrong results). nil with skipOn set means rows
	// never change (static snapshot).
	stamps []uint32
	// epoch yields the stamp value of the most recent apply; called
	// once per round, not per node.
	epoch func() uint32
	// marks flags nodes adjacent to the previous round's newly informed
	// set; allocated at activation when the skip layer is on.
	marks []bool
	// fresh is true only on the activation round, which probes every
	// list node once to establish the skip invariant.
	fresh bool
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
	if a.skipOn {
		if a.marks == nil {
			a.marks = make([]bool, n)
		}
		a.fresh = true
	}
	return true
}

// skipping reports whether this round walks only the skip candidates.
// The activation round always probes the full list.
func (a *activeSet) skipping() bool {
	if a.fresh {
		a.fresh = false
		return false
	}
	return a.skipOn
}

// markNeighbors records the nodes adjacent to this round's newly
// informed set as next-round probe candidates. Serial by design — it
// runs after the kernel's join, and in the straggler regime newly is
// bounded by the crossover fraction of n.
func (a *activeSet) markNeighbors(g *graph.Graph, newly []int32) {
	if !a.active || !a.skipOn {
		return
	}
	for _, u := range newly {
		for _, v := range g.Neighbors(int(u)) {
			a.marks[v] = true
		}
	}
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
