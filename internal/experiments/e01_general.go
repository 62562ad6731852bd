package experiments

import (
	"fmt"

	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/graph"
	"meg/internal/rng"
	"meg/internal/table"
)

// cycleMatching is a synthetic Markovian evolving graph used to
// validate Lemma 2.4 / Theorem 2.5 against a model whose expansion
// profile is known exactly: a fixed Hamiltonian cycle, optionally
// overlaid with a fresh uniform (near-)perfect matching every step.
//
// Every snapshot contains the cycle, and any non-empty I with
// |I| ≤ n/2 has |N(I)| ≥ 2 in a cycle, so every snapshot is a
// (h, 2/h)-expander for all h ≤ n/2 — an expansion profile that holds
// deterministically, hence with probability 1 ≥ 1 − 1/n².
type cycleMatching struct {
	n            int
	withMatching bool
	r            *rng.RNG
	builder      *graph.Builder
	g            *graph.Graph
	dirty        bool
	perm         []int
}

func newCycleMatching(n int, withMatching bool) *cycleMatching {
	if n < 4 {
		panic("experiments: cycleMatching needs n >= 4")
	}
	return &cycleMatching{
		n: n, withMatching: withMatching,
		builder: graph.NewBuilder(n),
		perm:    make([]int, n),
	}
}

func (c *cycleMatching) N() int { return c.n }

func (c *cycleMatching) Reset(r *rng.RNG) {
	c.r = r
	c.dirty = true
}

func (c *cycleMatching) Step() { c.dirty = true }

func (c *cycleMatching) Graph() *graph.Graph {
	if !c.dirty {
		return c.g
	}
	c.builder.Reset(c.n)
	for i := 0; i < c.n; i++ {
		c.builder.AddEdge(i, (i+1)%c.n)
	}
	if c.withMatching {
		for i := range c.perm {
			c.perm[i] = i
		}
		c.r.Shuffle(c.n, func(i, j int) { c.perm[i], c.perm[j] = c.perm[j], c.perm[i] })
		for i := 0; i+1 < c.n; i += 2 {
			u, v := c.perm[i], c.perm[i+1]
			// Skip pairs that duplicate a cycle edge.
			d := u - v
			if d < 0 {
				d = -d
			}
			if d == 1 || d == c.n-1 {
				continue
			}
			c.builder.AddEdge(u, v)
		}
	}
	c.g = c.builder.Build()
	c.dirty = false
	return c.g
}

// E1GeneralBound validates the general machinery of Section 2: for
// evolving graphs with a known deterministic expansion profile, the
// measured flooding time never exceeds the Lemma 2.4 / Corollary 2.6
// bound, and for the cycle (whose profile is tight) the bound is also
// within a small constant factor of the measurement.
func E1GeneralBound(p Params) *Report {
	ns := pick(p.Scale, []int{64, 128}, []int{128, 256, 512}, []int{128, 256, 512, 1024, 2048})
	trials := pick(p.Scale, 8, 16, 32)

	tbl := table.New("E1 — flooding vs Lemma 2.4 bound (bound uses only the guaranteed cycle profile)",
		"model", "n", "flood mean", "flood max", "bound", "max/bound")
	rep := &Report{
		ID:    "E1",
		Title: "Lemma 2.4 / Theorem 2.5: expansion implies a flooding-time bound",
		Notes: []string{
			"Synthetic MEGs with deterministic expansion: every snapshot contains a Hamiltonian",
			"cycle, so it is a (h, 2/h)-expander for all h ≤ n/2. The bound is 2×CorollarySum for",
			"that profile. 'cycle' should sit near the bound (the profile is tight for it);",
			"'cycle+matching' floods much faster, demonstrating that the bound is one-sided.",
		},
	}

	type cfg struct {
		name     string
		matching bool
	}
	worstRatio := 0.0
	tightRatio := 0.0
	for _, c := range []cfg{{"cycle", false}, {"cycle+matching", true}} {
		for _, n := range ns {
			ks := make([]float64, n/2)
			for i := 1; i <= n/2; i++ {
				ks[i-1] = 2 / float64(i)
			}
			bound := 2 * core.CorollarySum(ks)

			camp := flood.Run(func() core.Dynamics { return newCycleMatching(n, c.matching) }, flood.Options{
				Trials:      trials,
				Seed:        rng.SeedFor(p.Seed, n*7+boolInt(c.matching)),
				Workers:     p.Workers,
				Parallelism: p.Parallelism,
			})
			ratio := camp.MaxRounds() / bound
			if ratio > worstRatio {
				worstRatio = ratio
			}
			if !c.matching && ratio > tightRatio {
				tightRatio = ratio
			}
			tbl.AddRow(c.name, n, camp.MeanRounds(), camp.MaxRounds(), bound, ratio)
			if camp.Incomplete > 0 {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s n=%d: %d/%d incomplete runs", c.name, n, camp.Incomplete, trials))
			}
		}
	}

	// The Lemma 2.4 proof's hidden constant is small; 1.5× plus a tiny
	// additive covers the ceilings in every configuration we run.
	rep.Tables = append(rep.Tables, tbl)
	rep.Checks = append(rep.Checks,
		boolCheck("measured ≤ 1.5×bound+4 in every configuration", worstRatio <= 1.5+eps,
			"worst max/bound ratio %.3f", worstRatio),
		boolCheck("cycle profile is tight (max ≥ bound/4)", tightRatio >= 0.25,
			"cycle worst-case ratio %.3f (bound within 4× of measurement)", tightRatio),
	)
	rep.Metrics = map[string]float64{"worst_over_bound": worstRatio, "cycle_over_bound": tightRatio}
	return rep
}

const eps = 1e-9

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
