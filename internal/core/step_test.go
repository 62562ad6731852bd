package core

import (
	"math"
	"testing"

	"meg/internal/edgemeg"
	"meg/internal/geommeg"
	"meg/internal/graph"
	"meg/internal/rng"
)

// stepCounter counts chain advances, Step and StepDelta alike: a run
// that evaluates R snapshots G_0 … G_{R-1} needs exactly R-1 of them.
type stepCounter struct{ steps int }

// countingFull hides every optional interface, so the engines take the
// full-snapshot path.
type countingFull struct {
	Dynamics
	*stepCounter
}

func (c countingFull) Step() { c.steps++; c.Dynamics.Step() }

// countingDelta keeps only DeltaDynamics, so the engines take the
// delta path.
type countingDelta struct {
	DeltaDynamics
	*stepCounter
	deltas *int
}

func (c countingDelta) Step() { c.steps++; c.DeltaDynamics.Step() }

func (c countingDelta) StepDelta() graph.Delta {
	c.steps++
	*c.deltas++
	return c.DeltaDynamics.StepDelta()
}

// countingSpreader keeps only Spreader, so flooding takes the
// snapshot-free path.
type countingSpreader struct {
	Spreader
	*stepCounter
}

func (c countingSpreader) Step() { c.steps++; c.Spreader.Step() }

// TestNoFinalRoundStep is the flooding engines' counterpart of
// internal/protocol's TestNoFinalRoundResample: FloodOpt on the
// Spreader, full-snapshot and delta paths, FloodMulti and
// FloodParsimonious advance the chain only between evaluated rounds.
// A completed run of R rounds makes R-1 steps, a run capped at
// maxRounds makes maxRounds-1.
func TestNoFinalRoundStep(t *testing.T) {
	n := 256
	// A larger geometric model, so its flood lasts several rounds.
	radius := 2 * math.Sqrt(math.Log(4096))
	geom := geommeg.Config{N: 4096, R: radius, MoveRadius: radius / 2}
	edge := edgemeg.Config{N: n, P: 0.02, Q: 0.5}
	lowChurn := edgemeg.Config{N: n, P: 0.002, Q: 0.05}
	r := rng.New(22)

	type wrapped struct {
		d      Dynamics
		c      *stepCounter
		deltas *int
	}
	full := func(d Dynamics) wrapped {
		c := &stepCounter{}
		return wrapped{d: countingFull{d, c}, c: c}
	}
	delta := func(d DeltaDynamics) wrapped {
		c, k := &stepCounter{}, new(int)
		return wrapped{d: countingDelta{d, c, k}, c: c, deltas: k}
	}
	spread := func(d Spreader) wrapped {
		c := &stepCounter{}
		return wrapped{d: countingSpreader{d, c}, c: c}
	}

	cases := []struct {
		name string
		dyn  func() Dynamics
		wrap func(Dynamics) wrapped
		run  func(d Dynamics, maxRounds int) FloodResult
	}{
		{"flood/spreader", func() Dynamics { return geommeg.MustNew(geom) },
			func(d Dynamics) wrapped { return spread(d.(Spreader)) },
			func(d Dynamics, c int) FloodResult { return FloodOpt(d, 0, c, FloodOptions{}) }},
		{"flood/full", func() Dynamics { return edgemeg.MustNew(edge) }, full,
			func(d Dynamics, c int) FloodResult { return FloodOpt(d, 0, c, FloodOptions{}) }},
		{"flood/delta", func() Dynamics { return edgemeg.MustNew(lowChurn) },
			func(d Dynamics) wrapped { return delta(d.(DeltaDynamics)) },
			func(d Dynamics, c int) FloodResult { return FloodOpt(d, 0, c, FloodOptions{}) }},
		{"multi/full", func() Dynamics { return edgemeg.MustNew(edge) }, full,
			func(d Dynamics, c int) FloodResult { return WorstResult(FloodMulti(d, []int{0, 7, 99}, c)) }},
		{"multi/delta", func() Dynamics { return edgemeg.MustNew(lowChurn) },
			func(d Dynamics) wrapped { return delta(d.(DeltaDynamics)) },
			func(d Dynamics, c int) FloodResult { return WorstResult(FloodMulti(d, []int{0, 7, 99}, c)) }},
		{"parsimonious", func() Dynamics { return edgemeg.MustNew(edge) }, full,
			func(d Dynamics, c int) FloodResult { return FloodParsimonious(d, 0, c, c) }},
	}
	for _, tc := range cases {
		seed := r.Uint64()
		// Completed: R rounds, R-1 steps.
		w := tc.wrap(tc.dyn())
		w.d.Reset(rng.New(seed))
		res := tc.run(w.d, DefaultRoundCap(n))
		if !res.Completed {
			t.Fatalf("%s: incomplete after %d rounds — step accounting untestable", tc.name, res.Rounds)
		}
		if res.Rounds < 4 {
			t.Fatalf("%s: completed in %d rounds; pick a sparser model", tc.name, res.Rounds)
		}
		if w.c.steps != res.Rounds-1 {
			t.Errorf("%s: %d rounds took %d steps, want %d", tc.name, res.Rounds, w.c.steps, res.Rounds-1)
		}
		if w.deltas != nil && *w.deltas != w.c.steps {
			t.Errorf("%s: %d of %d steps went through StepDelta, want all (delta path)", tc.name, *w.deltas, w.c.steps)
		}
		// Capped: the same chain stopped two rounds short.
		limit := res.Rounds - 2
		w = tc.wrap(tc.dyn())
		w.d.Reset(rng.New(seed))
		capped := tc.run(w.d, limit)
		if capped.Completed || capped.Rounds != limit {
			t.Fatalf("%s: capped run completed=%v rounds=%d, want incomplete at %d", tc.name, capped.Completed, capped.Rounds, limit)
		}
		if w.c.steps != limit-1 {
			t.Errorf("%s: run capped at %d rounds took %d steps, want %d", tc.name, limit, w.c.steps, limit-1)
		}
	}
}

// TestParsimoniousDieOutStep pins the die-out exit: a process whose
// informed nodes all fall silent after R rounds stops there with R-1
// steps, like a completed run.
func TestParsimoniousDieOutStep(t *testing.T) {
	// A path 0-1-2-3 plus an isolated node: one-round budgets carry the
	// message to the end of the path, then every informed node is silent.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	c := &stepCounter{}
	d := countingFull{NewStatic(b.Build()), c}
	res := FloodParsimonious(d, 0, 1, 64)
	if res.Completed || res.Rounds != 4 {
		t.Fatalf("completed=%v rounds=%d, want a die-out at round 4", res.Completed, res.Rounds)
	}
	if c.steps != res.Rounds-1 {
		t.Fatalf("die-out after %d rounds took %d steps, want %d", res.Rounds, c.steps, res.Rounds-1)
	}
}
