package edgemeg

import (
	"slices"
	"testing"

	"meg/internal/rng"
)

// TestStepParallelismInvariant pins the sharded resampler's contract:
// the chain's realization depends only on the seed, never on the worker
// count, because every pair-space shard draws from its own stream.
func TestStepParallelismInvariant(t *testing.T) {
	cfg := Config{N: 500, P: 0.004, Q: 0.3}
	serial := MustNew(cfg)
	serial.SetParallelism(1)
	sharded := MustNew(cfg)
	sharded.SetParallelism(8)
	serial.Reset(rng.New(41))
	sharded.Reset(rng.New(41))
	for s := 0; s < 12; s++ {
		if len(serial.edges) != len(sharded.edges) {
			t.Fatalf("step %d: edge counts %d vs %d", s, len(serial.edges), len(sharded.edges))
		}
		for i := range serial.edges {
			if serial.edges[i] != sharded.edges[i] {
				t.Fatalf("step %d: edge %d differs", s, i)
			}
		}
		ga, gb := serial.Graph(), sharded.Graph()
		if ga.M() != gb.M() {
			t.Fatalf("step %d: snapshot edge counts differ", s)
		}
		for u := 0; u < cfg.N; u++ {
			na, nb := ga.Neighbors(u), gb.Neighbors(u)
			if len(na) != len(nb) {
				t.Fatalf("step %d: node %d degree differs", s, u)
			}
			for i := range na {
				if na[i] != nb[i] {
					t.Fatalf("step %d: node %d adjacency differs", s, u)
				}
			}
		}
		serial.Step()
		sharded.Step()
	}
}

// TestShardCountDependsOnlyOnN guards the determinism foundation: the
// shard layout is a function of n alone, so two models of the same size
// always partition the pair space identically.
func TestShardCountDependsOnlyOnN(t *testing.T) {
	a := MustNew(Config{N: 4000, P: 0.001, Q: 0.5})
	b := MustNew(Config{N: 4000, P: 0.01, Q: 0.1})
	if len(a.shards) != len(b.shards) {
		t.Fatalf("shard counts differ for equal n: %d vs %d", len(a.shards), len(b.shards))
	}
	for i := range a.shards {
		if a.shards[i].lo != b.shards[i].lo || a.shards[i].hi != b.shards[i].hi {
			t.Fatalf("shard %d ranges differ", i)
		}
	}
	// Ranges tile [0, C(n,2)) exactly.
	var prev int64
	for i, sh := range a.shards {
		if sh.lo != prev {
			t.Fatalf("shard %d starts at %d, want %d", i, sh.lo, prev)
		}
		prev = sh.hi
	}
	if prev != PairCount(4000) {
		t.Fatalf("shards cover %d pairs, want %d", prev, PairCount(4000))
	}
	if shardCountFor(100) != 1 {
		t.Fatalf("tiny n should use one shard")
	}
	if got := shardCountFor(1 << 20); got != maxShards {
		t.Fatalf("huge n should clamp to %d shards, got %d", maxShards, got)
	}
}

// TestGNPKeysRangePartitionMatchesDistribution checks that restricting
// GNP sampling to ranges tiles correctly: sampling each half of the
// index space produces sorted keys within the half's bounds and the
// p >= 1 fast path enumerates the range exactly.
func TestGNPKeysRangePartition(t *testing.T) {
	const n = 60
	total := PairCount(n)
	mid := total / 2
	full := appendGNPKeysRange(nil, n, 1, 0, total, rng.New(1))
	if int64(len(full)) != total {
		t.Fatalf("p=1 full range produced %d keys, want %d", len(full), total)
	}
	left := appendGNPKeysRange(nil, n, 1, 0, mid, rng.New(1))
	right := appendGNPKeysRange(nil, n, 1, mid, total, rng.New(1))
	if int64(len(left)) != mid || int64(len(right)) != total-mid {
		t.Fatalf("halves have %d + %d keys, want %d + %d", len(left), len(right), mid, total-mid)
	}
	for i, k := range append(left, right...) {
		if full[i] != k {
			t.Fatalf("concatenated halves diverge from full enumeration at %d", i)
		}
	}
	// Random sampling stays inside its range and sorted.
	r := rng.New(9)
	keys := appendGNPKeysRange(nil, n, 0.2, mid, total, r)
	u, v := PairAt(n, mid)
	loKey := packPair(u, v)
	for i, k := range keys {
		if k < loKey {
			t.Fatalf("key %d below range start", i)
		}
		if i > 0 && keys[i-1] >= k {
			t.Fatalf("range sample not strictly sorted at %d", i)
		}
	}
}

// TestGNPKeysRangeRowWalk checks the row-walk decode against
// oracleGNPKeysRange, one PairAt per candidate, key for key and with
// the stream left at the same place. The ranges start and end mid-row,
// on row boundaries, in the last row (u = n−2) and at C(n,2), for
// densities from one candidate per range to every pair.
func TestGNPKeysRangeRowWalk(t *testing.T) {
	for _, n := range []int{2, 3, 5, 64, 1000} {
		total := PairCount(n)
		var cuts []int64
		for _, k := range []int64{0, 1, rowBase(n, 1), rowBase(n, 1) + 1, rowBase(n, n/2) + int64(n-n/2)/2,
			rowBase(n, n-2) - 1, rowBase(n, n-2), total - 1, total} {
			if k >= 0 && k <= total && !slices.Contains(cuts, k) {
				cuts = append(cuts, k)
			}
		}
		for _, p := range []float64{1e-6, 0.01, 0.5, 0.99, 1} {
			for _, lo := range cuts {
				for _, hi := range cuts {
					if lo >= hi {
						continue
					}
					seed := uint64(n)<<32 ^ uint64(lo)<<16 ^ uint64(hi)
					got, want := rng.New(seed), rng.New(seed)
					keys := appendGNPKeysRange(nil, n, p, lo, hi, got)
					if ref := oracleGNPKeysRange(nil, n, p, lo, hi, want); !slices.Equal(keys, ref) {
						t.Fatalf("n=%d p=%g [%d,%d): %d keys, want %d", n, p, lo, hi, len(keys), len(ref))
					}
					if got.Uint64() != want.Uint64() {
						t.Fatalf("n=%d p=%g [%d,%d): stream left elsewhere", n, p, lo, hi)
					}
				}
			}
		}
	}
}
