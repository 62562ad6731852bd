// Package dynamicstest provides the shared conformance checks every
// evolving-graph model must pass: the Graph() aliasing contract (the
// returned snapshot is only valid until the next Step/Reset, so models
// may reuse buffers — and engines must copy what they keep), and, for
// delta-capable models, the equivalence of the incremental StepDelta
// path with the full rebuild, and, for models that flood without a
// snapshot (core.Spreader), the equivalence of their spread with the
// snapshot's neighborhoods. These contracts are what keep
// graph.Mutable's row reuse and the snapshot-free flooding path safe,
// so they are guarded here for all models rather than ad hoc per
// package.
package dynamicstest

import (
	"testing"

	"meg/internal/bitset"
	"meg/internal/core"
	"meg/internal/graph"
	"meg/internal/rng"
)

// rows is a deep copy of a snapshot's adjacency: the data an engine is
// allowed to keep across Step only by copying, which is exactly what
// this helper does.
type rows struct {
	m   int
	adj [][]int32
}

func copyRows(g *graph.Graph) rows {
	r := rows{m: g.M(), adj: make([][]int32, g.N())}
	for u := 0; u < g.N(); u++ {
		r.adj[u] = append([]int32(nil), g.Neighbors(u)...)
	}
	return r
}

func rowsEqual(t *testing.T, label string, got *graph.Graph, want rows) {
	t.Helper()
	if got.N() != len(want.adj) || got.M() != want.m {
		t.Fatalf("%s: size (n=%d,m=%d) vs (n=%d,m=%d)", label, got.N(), got.M(), len(want.adj), want.m)
	}
	for u := range want.adj {
		g := got.Neighbors(u)
		if len(g) != len(want.adj[u]) {
			t.Fatalf("%s: row %d length %d vs %d", label, u, len(g), len(want.adj[u]))
		}
		for i := range g {
			if g[i] != want.adj[u][i] {
				t.Fatalf("%s: row %d entry %d: %d vs %d", label, u, i, g[i], want.adj[u][i])
			}
		}
	}
}

// CheckGraphContract verifies the snapshot contract of a dynamics over
// the given number of steps:
//
//  1. Graph() is idempotent between steps (two calls agree byte for
//     byte), and a copy taken before Step captures G_t faithfully;
//  2. buffer reuse is sound: a same-seeded walk that skips the
//     intermediate Graph() calls reaches an identical final snapshot,
//     so no stale state from an earlier materialization leaks forward;
//  3. if the dynamics implements core.DeltaDynamics, a graph.Mutable
//     fed by StepDelta reproduces every per-step snapshot byte for
//     byte — rows included — which is the invariant that lets the
//     engines' delta path reuse adjacency rows safely.
func CheckGraphContract(t *testing.T, name string, factory func() core.Dynamics, seed uint64, steps int) {
	t.Helper()

	// Walk A materializes (and copies) every snapshot.
	a := factory()
	a.Reset(rng.New(seed))
	copies := make([]rows, 0, steps+1)
	for s := 0; s <= steps; s++ {
		g := a.Graph()
		first := copyRows(g)
		rowsEqual(t, name+": Graph() not idempotent", a.Graph(), first)
		copies = append(copies, first)
		if s < steps {
			a.Step()
		}
	}

	// Walk B never materializes intermediate snapshots: the final one
	// must still match, or a Graph() call would be perturbing the chain
	// (or a reused buffer would be leaking stale rows).
	b := factory()
	b.Reset(rng.New(seed))
	for s := 0; s < steps; s++ {
		b.Step()
	}
	rowsEqual(t, name+": skip-materialization walk diverged", b.Graph(), copies[steps])

	// Walk C drives the incremental path, checking the maintained view
	// against walk A's per-step copies.
	c := factory()
	dd, ok := c.(core.DeltaDynamics)
	if !ok {
		return
	}
	c.Reset(rng.New(seed))
	mut := graph.NewMutable(c.Graph())
	rowsEqual(t, name+": delta initial snapshot", mut.Graph(), copies[0])
	for s := 1; s <= steps; s++ {
		delta := dd.StepDelta()
		mut.ApplyDelta(delta, 1+s%4)
		rowsEqual(t, name+": delta path diverged from full rebuild", mut.Graph(), copies[s])
	}
	// The model's own full rebuild must agree with its delta stream.
	rowsEqual(t, name+": model Graph() after StepDelta", c.Graph(), copies[steps])
}

// CheckSpreadContract verifies the core.Spreader contract of a dynamics
// that implements it (and does nothing otherwise): at every step of a
// steps-long chain, Spread(I) must be exactly N_{G_t}(I) \ I, with the
// neighborhood read off Graph(), for I ∈ {∅, {s}, a seeded random half,
// all but one node, all nodes}.
func CheckSpreadContract(t *testing.T, name string, factory func() core.Dynamics, seed uint64, steps int) {
	t.Helper()
	d := factory()
	sp, ok := d.(core.Spreader)
	if !ok {
		return
	}
	n := d.N()
	r := rng.New(seed ^ 0x5b7ead)
	d.Reset(rng.New(seed))
	for s := 0; s <= steps; s++ {
		single := bitset.New(n)
		single.Add(s % n)
		half := bitset.New(n)
		for v := 0; v < n; v++ {
			if r.Bool() {
				half.Add(v)
			}
		}
		allButOne := bitset.New(n)
		allButOne.Fill()
		allButOne.Remove(r.Intn(n))
		all := bitset.New(n)
		all.Fill()
		g := d.Graph()
		for _, set := range []struct {
			label string
			I     *bitset.Set
		}{{"empty", bitset.New(n)}, {"single", single}, {"half", half}, {"all-but-one", allButOne}, {"all", all}} {
			want := bitset.New(n)
			set.I.ForEach(func(u int) {
				for _, v := range g.Neighbors(u) {
					if !set.I.Contains(int(v)) {
						want.Add(int(v))
					}
				}
			})
			before := set.I.Clone()
			sp.IndexInformed(set.I)
			newly := sp.Spread(set.I, nil)
			got := bitset.New(n)
			for _, v := range newly {
				if got.Contains(int(v)) {
					t.Fatalf("%s: step %d, I=%s: Spread listed node %d twice", name, s, set.label, v)
				}
				got.Add(int(v))
			}
			if !got.Equal(want) {
				t.Fatalf("%s: step %d, I=%s: Spread found %d nodes, N(I)\\I has %d", name, s, set.label, got.Count(), want.Count())
			}
			if !set.I.Equal(before) {
				t.Fatalf("%s: step %d, I=%s: Spread modified the informed set", name, s, set.label)
			}
		}
		if s < steps {
			d.Step()
		}
	}
}
