package core

import (
	"fmt"
	"math"
	"testing"

	"meg/internal/edgemeg"
	"meg/internal/geommeg"
	"meg/internal/graph"
	"meg/internal/rng"
)

// sameResult compares every observable field of two FloodResults.
func sameResult(t *testing.T, label string, a, b FloodResult) {
	t.Helper()
	if a.Source != b.Source || a.Rounds != b.Rounds || a.Completed != b.Completed {
		t.Fatalf("%s: headline mismatch: (%d,%d,%v) vs (%d,%d,%v)",
			label, a.Source, a.Rounds, a.Completed, b.Source, b.Rounds, b.Completed)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("%s: trajectory lengths %d vs %d", label, len(a.Trajectory), len(b.Trajectory))
	}
	for i := range a.Trajectory {
		if a.Trajectory[i] != b.Trajectory[i] {
			t.Fatalf("%s: trajectory[%d] = %d vs %d", label, i, a.Trajectory[i], b.Trajectory[i])
		}
	}
	for v := range a.Arrival {
		if a.Arrival[v] != b.Arrival[v] {
			t.Fatalf("%s: arrival[%d] = %d vs %d", label, v, a.Arrival[v], b.Arrival[v])
		}
	}
	if !a.Informed.Equal(b.Informed) {
		t.Fatalf("%s: informed sets differ", label)
	}
}

// kernels are the snapshot-path settings that must all produce
// bit-identical results: the engine's own push→pull choice and the two
// pinned kernels.
var kernels = []string{"auto", "push", "pull"}

// floodPinned is FloodOpt with the snapshot kernel pinned through
// SetKernelForTest ("auto" leaves the engine's choice).
func floodPinned(kernel string, d Dynamics, source, maxRounds int, opt FloodOptions) FloodResult {
	defer SetKernelForTest(kernel)()
	return FloodOpt(d, source, maxRounds, opt)
}

// TestKernelEquivalenceEdge cross-checks sparse and dense flooding on
// stationary edge-MEG realizations: the kernels draw no randomness, so
// resetting the model with the same seed must reproduce the identical
// snapshot sequence and hence the identical FloodResult.
func TestKernelEquivalenceEdge(t *testing.T) {
	n := 256
	pHat := 8 * math.Log(float64(n)) / float64(n)
	cfg := edgemeg.Config{N: n, P: 0.5 * pHat / (1 - pHat), Q: 0.5}
	for seed := uint64(1); seed <= 5; seed++ {
		ref := FloodResult{}
		first := true
		for _, name := range kernels {
			m := edgemeg.MustNew(cfg)
			m.Reset(rng.New(seed))
			res := floodPinned(name, m, int(seed)%n, DefaultRoundCap(n), FloodOptions{})
			if !res.Completed {
				t.Fatalf("seed %d kernel %s: flood did not complete", seed, name)
			}
			if first {
				ref = res
				first = false
				continue
			}
			sameResult(t, name, res, ref)
		}
	}
}

// geomEquivalenceCases are the geometric-MEG shapes the spatial
// (Spreader) path must handle exactly like the CSR kernels: the box and
// the torus, brute-force grids (fewer than 3 cells per axis), a
// clustered start that stacks many nodes on one lattice point, the
// lazy walk, and non-unit densities.
func geomEquivalenceCases() map[string]geommeg.Config {
	n := 400
	radius := 2 * math.Sqrt(math.Log(float64(n)))
	base := geommeg.Config{N: n, R: radius, MoveRadius: radius / 2}
	with := func(edit func(*geommeg.Config)) geommeg.Config {
		c := base
		edit(&c)
		return c
	}
	return map[string]geommeg.Config{
		"box":         base,
		"torus":       with(func(c *geommeg.Config) { c.Torus = true }),
		"brute":       {N: 200, R: 6, MoveRadius: 3},
		"brute-torus": {N: 60, R: 4, MoveRadius: 2, Torus: true},
		"clustered":   with(func(c *geommeg.Config) { c.Init = geommeg.InitClustered }),
		"lazy":        with(func(c *geommeg.Config) { c.Jump = 0.1 }),
		"lazy-torus":  with(func(c *geommeg.Config) { c.Jump = 0.05; c.Torus = true }),
		"dense":       with(func(c *geommeg.Config) { c.Density = 4; c.R = 2 * math.Sqrt(math.Log(float64(n))/4) }),
		"sparse":      with(func(c *geommeg.Config) { c.Density = 0.5 }),
	}
}

// TestKernelEquivalenceGeom is the geometric-MEG counterpart, covering
// the model whose snapshots come from mobile node positions. The model
// floods through its cell grid (core.Spreader); hiding that interface
// puts it on the CSR snapshot kernels, so every case cross-checks the
// spatial path against each CSR kernel at several worker counts.
func TestKernelEquivalenceGeom(t *testing.T) {
	for name, cfg := range geomEquivalenceCases() {
		if _, ok := Dynamics(geommeg.MustNew(cfg)).(Spreader); !ok {
			t.Fatalf("%s: geommeg.Model does not implement Spreader", name)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			run := func(kernel string, spread bool, p int) FloodResult {
				var d Dynamics = geommeg.MustNew(cfg)
				d.Reset(rng.New(seed))
				if !spread {
					d = struct{ Dynamics }{d}
				}
				return floodPinned(kernel, d, int(seed)%cfg.N, DefaultRoundCap(cfg.N), FloodOptions{Parallelism: p})
			}
			ref := run("push", false, 1)
			for _, p := range []int{1, 2, 8} {
				sameResult(t, fmt.Sprintf("%s seed %d spread P%d", name, seed, p), run("auto", true, p), ref)
				for _, kernel := range kernels {
					sameResult(t, fmt.Sprintf("%s seed %d csr-%s P%d", name, seed, kernel, p), run(kernel, false, p), ref)
				}
			}
		}
	}
}

// TestKernelEquivalenceStaticDense forces the pull kernel onto a dense
// static snapshot (average degree ≥ 64), where most pull probes exit
// on their first neighbor, against the push kernel.
func TestKernelEquivalenceStaticDense(t *testing.T) {
	n := 512
	g := edgemeg.SampleGNP(n, 0.3, rng.New(7))
	if g.AvgDegree() < 64 {
		t.Fatalf("test graph not dense: avg degree %.1f", g.AvgDegree())
	}
	push := floodPinned("push", NewStatic(g), 3, DefaultRoundCap(n), FloodOptions{})
	pull := floodPinned("pull", NewStatic(g), 3, DefaultRoundCap(n), FloodOptions{})
	sameResult(t, "static-dense", pull, push)
	if !pull.Completed {
		t.Fatal("dense static flood should complete")
	}
}

// TestKernelEquivalenceIncomplete checks both kernels agree on runs
// that hit the round cap (disconnected graph).
func TestKernelEquivalenceIncomplete(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	push := floodPinned("push", NewStatic(g), 0, 4, FloodOptions{})
	pull := floodPinned("pull", NewStatic(g), 0, 4, FloodOptions{})
	sameResult(t, "incomplete", pull, push)
	if push.Completed || push.Rounds != 4 {
		t.Fatalf("expected capped incomplete run, got rounds=%d completed=%v", push.Rounds, push.Completed)
	}
}

// TestAutoPullStaysOnAfterActivation pins the snapshot path's sticky
// pull. The sequence A, A, B has a dense A (a clique on nodes 0–39,
// plus the edge 60–61) and a sparse B (0–60 and 1–61 only), so the
// derived push/pull threshold rises from about a quarter of n to a half
// between rounds 1 and 2. Round 1 pulls and, with the crossover pinned
// to always, starts the straggler list; on the delta path it also
// retires the informed rows. Had round 2 switched back to push, it
// would read the retired rows of 0 and 1 (on the delta path), or leave
// 60 and 61 in the list for round 3 to count a second time (on the full
// path).
func TestAutoPullStaysOnAfterActivation(t *testing.T) {
	const n = 100
	a, b := graph.NewBuilder(n), graph.NewBuilder(n)
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			a.AddEdge(u, v)
		}
	}
	a.AddEdge(60, 61)
	b.AddEdge(0, 60)
	b.AddEdge(1, 61)
	gs := []*graph.Graph{a.Build(), a.Build(), b.Build()}
	lists := make([][][]int32, len(gs))
	deltas := make([]graph.Delta, len(gs))
	for i, g := range gs {
		lists[i] = make([][]int32, n)
		next := gs[(i+1)%len(gs)]
		for u := 0; u < n; u++ {
			lists[i][u] = g.Neighbors(u)
			for v := u + 1; v < n; v++ {
				switch was, is := g.HasEdge(u, v), next.HasEdge(u, v); {
				case is && !was:
					deltas[i].Births = append(deltas[i].Births, graph.PackEdge(u, v))
				case was && !is:
					deltas[i].Deaths = append(deltas[i].Deaths, graph.PackEdge(u, v))
				}
			}
		}
	}
	want := floodOracle(lists, 0, 10)
	defer SetActiveSetFracForTest(1)()
	// The bare sequence takes the delta path; hiding StepDelta pins the
	// full rebuild.
	d := &deltaSequence{Sequence: NewSequence(gs...), deltas: deltas}
	sameResult(t, "auto/delta", FloodOpt(d, 0, 10, FloodOptions{}), want)
	d = &deltaSequence{Sequence: NewSequence(gs...), deltas: deltas}
	sameResult(t, "auto/full", FloodOpt(struct{ Dynamics }{d}, 0, 10, FloodOptions{}), want)
}

// TestPullThresholdFor pins the auto switch point derivation.
func TestPullThresholdFor(t *testing.T) {
	if got := pullThresholdFor(100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("pullThresholdFor(100) = %v, want 0.1", got)
	}
	if got := pullThresholdFor(0); got != 0.5 {
		t.Fatalf("pullThresholdFor(0) = %v, want 0.5 (degenerate)", got)
	}
	if got := pullThresholdFor(1e9); got != 0.02 {
		t.Fatalf("pullThresholdFor(1e9) = %v, want clamp 0.02", got)
	}
}

// TestDegreeHinterModels confirms both concrete models provide the
// kernel-switch hint and that it is in a sane range.
func TestDegreeHinterModels(t *testing.T) {
	var d Dynamics = edgemeg.MustNew(edgemeg.Config{N: 100, P: 0.02, Q: 0.5})
	h, ok := d.(DegreeHinter)
	if !ok {
		t.Fatal("edgemeg.Model does not implement DegreeHinter")
	}
	want := 99 * (0.02 / 0.52)
	if math.Abs(h.ExpectedDegree()-want) > 1e-9 {
		t.Fatalf("edge ExpectedDegree = %v, want %v", h.ExpectedDegree(), want)
	}
	d = geommeg.MustNew(geommeg.Config{N: 100, R: 3, MoveRadius: 1})
	h, ok = d.(DegreeHinter)
	if !ok {
		t.Fatal("geommeg.Model does not implement DegreeHinter")
	}
	if deg := h.ExpectedDegree(); deg <= 0 || deg > 99 {
		t.Fatalf("geom ExpectedDegree = %v out of range", deg)
	}
}
