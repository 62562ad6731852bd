package graph

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"meg/internal/bitset"
	"meg/internal/rng"
)

// buildFromKeys materializes the packed edge set as a Builder-built
// graph. Keys are added in ascending order, so every CSR row comes out
// sorted — the canonical row order of the delta-capable models.
func buildFromKeys(n int, keys []uint64) *Graph {
	b := NewBuilder(n)
	for _, k := range keys {
		u, v := UnpackEdge(k)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// randomKeys samples each pair independently with probability p.
func randomKeys(n int, p float64, r *rng.RNG) []uint64 {
	var keys []uint64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(p) {
				keys = append(keys, PackEdge(u, v))
			}
		}
	}
	return keys
}

// randomDelta derives a delta from the current edge set: present edges
// die with probability die, absent pairs are born with probability
// born. It returns the delta and the next edge set.
func randomDelta(n int, keys []uint64, born, die float64, r *rng.RNG) (Delta, []uint64) {
	present := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		present[k] = true
	}
	var d Delta
	var next []uint64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			k := PackEdge(u, v)
			if present[k] {
				if r.Bernoulli(die) {
					d.Deaths = append(d.Deaths, k)
				} else {
					next = append(next, k)
				}
			} else if r.Bernoulli(born) {
				d.Births = append(d.Births, k)
				next = append(next, k)
			}
		}
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	return d, next
}

func graphsEqual(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	liveRowsEqual(t, label, got, want, nil)
}

// liveRowsEqual checks got against want on the edge count and on the
// rows of every node outside done (all rows when done is nil).
func liveRowsEqual(t *testing.T, label string, got, want *Graph, done *bitset.Set) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: size (n=%d,m=%d) vs (n=%d,m=%d)", label, got.N(), got.M(), want.N(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		if done != nil && done.Contains(u) {
			continue
		}
		g, w := got.Neighbors(u), want.Neighbors(u)
		if len(g) != len(w) {
			t.Fatalf("%s: row %d length %d vs %d", label, u, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: row %d entry %d: %d vs %d", label, u, i, g[i], w[i])
			}
		}
	}
}

func TestPackEdgeRoundTripAndOrder(t *testing.T) {
	u, v := UnpackEdge(PackEdge(7, 3))
	if u != 3 || v != 7 {
		t.Fatalf("round trip gave (%d,%d)", u, v)
	}
	if PackEdge(1, 2) >= PackEdge(1, 3) || PackEdge(1, 500) >= PackEdge(2, 3) {
		t.Fatal("key order does not match lexicographic pair order")
	}
}

// TestMutableMatchesRebuild walks a random birth/death chain for many
// rounds, maintaining the snapshot incrementally, and checks it against
// a from-scratch rebuild of the same edge set every round.
func TestMutableMatchesRebuild(t *testing.T) {
	const n = 150
	r := rng.New(42)
	keys := randomKeys(n, 0.05, r)
	m := NewMutable(buildFromKeys(n, keys))
	for round := 0; round < 25; round++ {
		var d Delta
		d, keys = randomDelta(n, keys, 0.01, 0.15, r)
		m.ApplyDelta(d, 1+round%4)
		graphsEqual(t, "round", m.Graph(), buildFromKeys(n, keys))
	}
}

// TestMutableParallelDeterminism applies the same delta sequence with
// 1 and 8 workers: the maintained views must be byte-identical, the
// contract that keeps the snapshot hint outside the content hash.
func TestMutableParallelDeterminism(t *testing.T) {
	const n = 200
	r := rng.New(7)
	initial := randomKeys(n, 0.04, r)
	var deltas []Delta
	keys := initial
	for round := 0; round < 12; round++ {
		var d Delta
		d, keys = randomDelta(n, keys, 0.02, 0.2, r)
		deltas = append(deltas, d)
	}
	a := NewMutable(buildFromKeys(n, initial))
	b := NewMutable(buildFromKeys(n, initial))
	for _, d := range deltas {
		a.ApplyDelta(d, 1)
		b.ApplyDelta(d, 8)
	}
	graphsEqual(t, "p1-vs-p8", b.Graph(), a.Graph())
}

// TestMutableOverflowRelayout grows one hub row far past its slack so
// the relayout path runs, then shrinks it again.
func TestMutableOverflowRelayout(t *testing.T) {
	const n = 80
	m := NewMutable(buildFromKeys(n, []uint64{PackEdge(0, 1)}))
	keys := []uint64{PackEdge(0, 1)}
	for v := 2; v < n; v++ {
		d := Delta{Births: []uint64{PackEdge(0, v)}}
		m.ApplyDelta(d, 2)
		keys = append(keys, PackEdge(0, v))
	}
	graphsEqual(t, "grown", m.Graph(), buildFromKeys(n, keys))
	var deaths []uint64
	for v := 2; v < n; v += 2 {
		deaths = append(deaths, PackEdge(0, v))
	}
	m.ApplyDelta(Delta{Deaths: deaths}, 3)
	var rest []uint64
	for _, k := range keys {
		dead := false
		for _, dk := range deaths {
			if dk == k {
				dead = true
			}
		}
		if !dead {
			rest = append(rest, k)
		}
	}
	graphsEqual(t, "shrunk", m.Graph(), buildFromKeys(n, rest))
}

func expectPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", label)
		}
	}()
	fn()
}

func TestNewMutableRejectsUnsortedRows(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1) // row 0 comes out [3, 1]
	g := b.Build()
	expectPanic(t, "unsorted", func() { NewMutable(g) })
}

// TestApplyDeltaRejectsInconsistentDeltas pins ApplyDelta's validation,
// before and after Retire: a birth already present, a death absent, a
// key that is both, unsorted keys and out-of-range keys all panic with
// their message, whether the key has no retired endpoint, one, or two.
// With nodes 4–7 retired, a key between two of them touches no row at
// all, so only the Mutable's edge-key set can catch it.
func TestApplyDeltaRejectsInconsistentDeltas(t *testing.T) {
	base := []uint64{
		PackEdge(0, 1), PackEdge(1, 2), PackEdge(1, 4), PackEdge(2, 3),
		PackEdge(4, 5), PackEdge(5, 6), PackEdge(6, 7),
	}
	raw := func(u, v int) uint64 { return uint64(u)<<32 | uint64(v) } // unordered pair
	// Per endpoint class: a present key, two absent keys (ascending)
	// and a reversed pair.
	classes := []struct {
		name            string
		present, a1, a2 uint64
		reversed        uint64
	}{
		{"no endpoint retired", PackEdge(0, 1), PackEdge(0, 2), PackEdge(0, 3), raw(2, 1)},
		{"one endpoint retired", PackEdge(1, 4), PackEdge(2, 5), PackEdge(2, 6), raw(5, 1)},
		{"both endpoints retired", PackEdge(4, 5), PackEdge(4, 6), PackEdge(4, 7), raw(6, 4)},
	}
	for _, c := range classes {
		cases := []struct {
			name, want string
			d          Delta
		}{
			{"birth present", "birth of an edge already present", Delta{Births: []uint64{c.present}}},
			{"death absent", "death of an edge absent", Delta{Deaths: []uint64{c.a1}}},
			{"birth and death of a present edge", "birth of an edge already present",
				Delta{Births: []uint64{c.present}, Deaths: []uint64{c.present}}},
			{"birth and death of an absent edge", "death of an edge absent",
				Delta{Births: []uint64{c.a1}, Deaths: []uint64{c.a1}}},
			{"unsorted births", "births not strictly ascending", Delta{Births: []uint64{c.a2, c.a1}}},
			{"repeated deaths", "deaths not strictly ascending", Delta{Deaths: []uint64{c.present, c.present}}},
			{"reversed pair", "out of range", Delta{Births: []uint64{c.reversed}}},
			{"node past n", "out of range", Delta{Deaths: []uint64{c.a1 + 8}}},
		}
		for _, tc := range cases {
			for _, retire := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/retired=%v", c.name, tc.name, retire)
				m := NewMutable(buildFromKeys(8, base))
				if retire {
					done := bitset.New(8)
					for u := 4; u < 8; u++ {
						done.Add(u)
					}
					m.Retire(done)
				}
				msg := panicMessage(func() { m.ApplyDelta(tc.d, 1) })
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want it to contain %q", label, msg, tc.want)
				}
			}
		}
	}
}

// panicMessage runs fn and returns what it panicked with, or "" when it
// returned normally.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestMutableResetMatchesFresh pins the pooling contract: a Mutable
// that has lived through one run — deltas applied, rows relaid out —
// and is then Reset onto a different graph must be
// indistinguishable from a fresh NewMutable of that graph, across a
// whole delta chain. Shrinking and growing resets both take the reuse
// path.
func TestMutableResetMatchesFresh(t *testing.T) {
	r := rng.New(99)
	wear := randomKeys(120, 0.08, r)
	dirty := NewMutable(buildFromKeys(120, wear))
	for round := 0; round < 8; round++ {
		var d Delta
		d, wear = randomDelta(120, wear, 0.05, 0.2, r)
		dirty.ApplyDelta(d, 2)
	}
	for _, n := range []int{60, 200} { // shrink, then grow
		init := randomKeys(n, 0.07, r)
		g := buildFromKeys(n, init)
		dirty.Reset(g)
		fresh := NewMutable(buildFromKeys(n, init))
		graphsEqual(t, "post-reset", dirty.Graph(), fresh.Graph())
		chain := init
		for round := 0; round < 10; round++ {
			var d Delta
			d, chain = randomDelta(n, chain, 0.03, 0.15, r)
			dirty.ApplyDelta(d, 1+round%3)
			fresh.ApplyDelta(d, 1)
			graphsEqual(t, "post-reset chain", dirty.Graph(), fresh.Graph())
		}
	}
}
