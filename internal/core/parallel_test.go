package core

import (
	"testing"

	"meg/internal/graph"
)

// floodResultsEqual compares every field of two FloodResults, arrival
// arrays and informed sets included.
func floodResultsEqual(t *testing.T, label string, a, b FloodResult) {
	t.Helper()
	if a.Source != b.Source || a.Rounds != b.Rounds || a.Completed != b.Completed {
		t.Fatalf("%s: header mismatch: %+v vs %+v", label, a.Rounds, b.Rounds)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("%s: trajectory lengths %d vs %d", label, len(a.Trajectory), len(b.Trajectory))
	}
	for i := range a.Trajectory {
		if a.Trajectory[i] != b.Trajectory[i] {
			t.Fatalf("%s: trajectory[%d] = %d vs %d", label, i, a.Trajectory[i], b.Trajectory[i])
		}
	}
	if len(a.Arrival) != len(b.Arrival) {
		t.Fatalf("%s: arrival lengths differ", label)
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

func TestFloodParallelismByteIdentical(t *testing.T) {
	// The result must not depend on the shard count: one shard and
	// 2, 3 or 8 shards agree exactly, for every kernel, on deterministic
	// dynamics (randomSequence replays identical snapshots to every run).
	for _, n := range []int{5, 64, 65, 500, 2048} {
		edgeP := 2.5 / float64(n)
		for _, kernel := range kernels {
			oneShard := floodPinned(kernel, randomSequence(n, 64, edgeP, uint64(n)), 0, DefaultRoundCap(n),
				FloodOptions{Parallelism: 1})
			for _, p := range []int{2, 3, 8} {
				par := floodPinned(kernel, randomSequence(n, 64, edgeP, uint64(n)), 0, DefaultRoundCap(n),
					FloodOptions{Parallelism: p})
				floodResultsEqual(t, kernel, oneShard, par)
			}
		}
	}
}

func TestFloodParallelismStaticPull(t *testing.T) {
	// The pull scan over a dense static snapshot may not depend on the
	// shard count.
	g := graph.Complete(300)
	oneShard := floodPinned("pull", NewStatic(g), 7, 100, FloodOptions{Parallelism: 1})
	par := floodPinned("pull", NewStatic(g), 7, 100, FloodOptions{Parallelism: 8})
	floodResultsEqual(t, "static pull", oneShard, par)
}

func TestFloodMultiParallelismByteIdentical(t *testing.T) {
	const n = 600
	sources := make([]int, 100)
	for i := range sources {
		sources[i] = (i * 13) % n
	}
	oneShard := FloodMultiOpt(randomSequence(n, 64, 2.5/float64(n), 3), sources, DefaultRoundCap(n), MultiOptions{Parallelism: 1})
	for _, p := range []int{2, 8} {
		par := FloodMultiOpt(randomSequence(n, 64, 2.5/float64(n), 3), sources, DefaultRoundCap(n), MultiOptions{Parallelism: p})
		for k := range oneShard {
			floodResultsEqual(t, "multi", oneShard[k], par[k])
		}
	}
}

func TestFloodParallelIncomplete(t *testing.T) {
	// A disconnected graph must leave the same nodes uninformed on one
	// shard and on four, and the round cap applies identically.
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	oneShard := FloodOpt(NewStatic(g), 0, 17, FloodOptions{Parallelism: 1})
	par := FloodOpt(NewStatic(g), 0, 17, FloodOptions{Parallelism: 4})
	if oneShard.Completed || par.Completed {
		t.Fatal("disconnected flood completed")
	}
	floodResultsEqual(t, "disconnected", oneShard, par)
	if oneShard.Rounds != 17 {
		t.Fatalf("incomplete run reports %d rounds, want the cap", oneShard.Rounds)
	}
}

func TestDefaultRoundCapRegression(t *testing.T) {
	// The cap must be logarithmic, not linear: the old 4n+32 spun a
	// stalled 512k-node flood for ~2M rounds.
	if got := DefaultRoundCap(512 * 1024); got >= 10000 {
		t.Fatalf("DefaultRoundCap(512k) = %d, still pathological", got)
	}
	if got := DefaultRoundCap(512 * 1024); got < 1000 {
		t.Fatalf("DefaultRoundCap(512k) = %d, below the geometric-MEG diameter headroom", got)
	}
	// Floor for small n.
	for _, n := range []int{0, 1, 2} {
		if got := DefaultRoundCap(n); got != minRoundCap {
			t.Fatalf("DefaultRoundCap(%d) = %d, want %d", n, got, minRoundCap)
		}
	}
	// Monotone in n.
	prev := 0
	for _, n := range []int{2, 16, 256, 4096, 65536, 1 << 20, 1 << 30} {
		got := DefaultRoundCap(n)
		if got < prev {
			t.Fatalf("DefaultRoundCap not monotone at n=%d: %d < %d", n, got, prev)
		}
		prev = got
	}
	// Exact shape: max(64, 64·⌈log₂ n⌉, ⌈√n⌉).
	if got := DefaultRoundCap(256); got != roundCapC*roundCapGrowthGuard*8 {
		t.Fatalf("DefaultRoundCap(256) = %d", got)
	}
	// At huge n the √n diameter guard takes over: a healthy geometric
	// flood needs Θ(√(n/log n)) rounds, which 64·log₂ n alone would
	// undercut past n ≈ 2^26.
	if got := DefaultRoundCap(1 << 28); got != 1<<14 {
		t.Fatalf("DefaultRoundCap(2^28) = %d, want %d (√n guard)", got, 1<<14)
	}
	// Still generous for every default-parameter model: a connected
	// geometric-MEG at n=4096 floods in ~20 rounds, edge-MEGs in O(log n).
	if got := DefaultRoundCap(4096); got < 256 {
		t.Fatalf("DefaultRoundCap(4096) = %d, too tight", got)
	}
}
