package edgemeg

import (
	"math"
	"slices"
	"sort"
	"testing"

	"meg/internal/graph"
	"meg/internal/rng"
)

// FuzzEdgeStep checks the churn-proportional Step against oracleStep, a
// copy of the merge-based step it replaced, on generated chains: n from
// 2 to 3201 (two pair-space shards from n = 2897), p and q anywhere in
// [0, 1] including both ends, every InitMode (InitGraph from a G(n, d)
// start, d = 0 giving an empty edge list), 1 to 32 steps and 1 to 8
// workers. Both models start from the same seed. A stationary G_0 must
// equal oracleStationary's sample, drawn with Geometric + PairAt per
// candidate from a copy of the shard streams, and leave every stream
// where the oracle's copy ends. After every step the edge lists and the StepDelta births and deaths must be byte-equal,
// the stepped model's Graph (assembled in place at its worker count)
// must equal AddEdge + Build over the oracle's keys row for row, and
// at the end every shard stream must yield the same next draw.
// Inputs whose expected births per step or edge count exceed a small
// budget are skipped. The seed corpus lives in
// testdata/fuzz/FuzzEdgeStep and runs under plain go test.
func FuzzEdgeStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, pRaw, qRaw uint32, init, steps uint8, seed uint64) {
		n := 2 + int(nRaw)%3200
		pairs := float64(PairCount(n))
		cfg := Config{
			N:    n,
			P:    float64(pRaw) / math.MaxUint32,
			Q:    float64(qRaw) / math.MaxUint32,
			Init: InitMode(init % 4),
		}
		edges := 0.0 // expected initial edge count
		switch cfg.Init {
		case InitStationary:
			if cfg.P+cfg.Q == 0 {
				t.Skip("no stationary distribution")
			}
			edges = cfg.PHat() * pairs
		case InitComplete:
			edges = pairs
		case InitGraph:
			d := float64(init>>2) / 63
			edges = d * pairs
			if edges <= 1<<16 {
				cfg.Start = SampleGNP(n, d, rng.New(^seed))
			}
		}
		if cfg.P*pairs > 1<<14 || edges > 1<<16 {
			t.Skip("over the work budget")
		}
		workers := 1 + int(steps>>5)
		k := 1 + int(steps)%32

		got, want := MustNew(cfg), MustNew(cfg)
		got.SetParallelism(workers)
		got.Reset(rng.New(seed))
		want.Reset(rng.New(seed))
		if !slices.Equal(got.edges, want.edges) {
			t.Fatal("initial edge lists differ")
		}
		if cfg.Init == InitStationary {
			keys, streams := oracleStationary(got, seed)
			if !slices.Equal(got.edges, keys) {
				t.Fatalf("stationary G_0 differs from the oracle (%d vs %d edges)", len(got.edges), len(keys))
			}
			for i := range streams {
				if next := *got.shards[i].r; next.Uint64() != streams[i].Uint64() {
					t.Fatalf("shard %d: Reset left the stream elsewhere than the oracle", i)
				}
			}
		}
		checkSnapshot(t, got.Graph(), n, want.edges)
		for s := 0; s < k; s++ {
			d := got.StepDelta()
			births, deaths := oracleStep(want)
			switch {
			case !slices.Equal(got.edges, want.edges):
				t.Fatalf("step %d: edge lists differ (%d vs %d edges)", s, len(got.edges), len(want.edges))
			case !slices.Equal(d.Births, births):
				t.Fatalf("step %d: births differ (%d vs %d)", s, len(d.Births), len(births))
			case !slices.Equal(d.Deaths, deaths):
				t.Fatalf("step %d: deaths differ (%d vs %d)", s, len(d.Deaths), len(deaths))
			}
			checkSnapshot(t, got.Graph(), n, want.edges)
		}
		for i := range got.shards {
			if got.shards[i].r.Uint64() != want.shards[i].r.Uint64() {
				t.Fatalf("shard %d: next draw differs after %d steps", i, k)
			}
		}
	})
}

// oracleStationary returns the stationary G_0 that Reset(rng.New(seed))
// must sample into m, and the shard streams after sampling it: it
// splits the shard streams from the seed in shard order, as Reset does,
// and draws each shard's range with oracleGNPKeysRange.
func oracleStationary(m *Model, seed uint64) (keys []uint64, streams []rng.RNG) {
	r := rng.New(seed)
	for i := range m.shards {
		sh, s := &m.shards[i], r.Split()
		keys = oracleGNPKeysRange(keys, m.cfg.N, m.cfg.PHat(), sh.lo, sh.hi, s)
		streams = append(streams, *s)
	}
	return keys, streams
}

// oracleGNPKeysRange is the plain skip sampler appendGNPKeysRange
// refines: one Geometric(p) draw and one PairAt per candidate. At p = 1
// every skip is 0 and draws nothing, so it also covers the
// enumeration path.
func oracleGNPKeysRange(dst []uint64, n int, p float64, lo, hi int64, r *rng.RNG) []uint64 {
	if p <= 0 {
		return dst
	}
	for idx := lo - 1; ; {
		idx += r.Geometric(p) + 1
		if idx >= hi {
			return dst
		}
		dst = append(dst, packPair(PairAt(n, idx)))
	}
}

// oracleStep advances m by the merge-based step Step replaced, drawing
// from the same shard streams in the same order: per shard, every birth
// candidate is listed, every surviving edge is copied out by a walk over
// the shard's slice, and the two lists are merged with a collision check
// against the time-t slice; the shard outputs are then concatenated. It
// returns the step's effective births and deaths, ascending.
func oracleStep(m *Model) (births, deaths []uint64) {
	n, p, q := m.cfg.N, m.cfg.P, m.cfg.Q
	var next []uint64
	rest := m.edges
	for i := range m.shards {
		sh := &m.shards[i]
		end := len(rest)
		if i+1 < len(m.shards) {
			key := m.shards[i+1].loKey
			end = sort.Search(len(rest), func(j int) bool { return rest[j] >= key })
		}
		edges := rest[:end]
		rest = rest[end:]

		var survivors []uint64
		candidates := oracleGNPKeysRange(nil, n, p, sh.lo, sh.hi, sh.r)
		if q <= 0 {
			survivors = append(survivors, edges...)
		} else if q >= 1 {
			deaths = append(deaths, edges...)
		} else {
			death := sh.r.Geometric(q)
			for j, e := range edges {
				if int64(j) == death {
					death += sh.r.Geometric(q) + 1
					deaths = append(deaths, e)
					continue
				}
				survivors = append(survivors, e)
			}
		}
		next, births = oracleMerge(next, births, survivors, candidates, edges)
	}
	m.edges = next
	m.dirty = true
	return births, deaths
}

// oracleMerge merges survivors and births into dst, dropping any birth
// whose pair was present in original and recording the births that took
// effect in eff. All inputs are ascending; both results are ascending.
func oracleMerge(dst, eff, survivors, births, original []uint64) ([]uint64, []uint64) {
	oi, si := 0, 0
	for _, b := range births {
		for oi < len(original) && original[oi] < b {
			oi++
		}
		if oi < len(original) && original[oi] == b {
			continue
		}
		for si < len(survivors) && survivors[si] < b {
			dst = append(dst, survivors[si])
			si++
		}
		dst = append(dst, b)
		eff = append(eff, b)
	}
	return append(dst, survivors[si:]...), eff
}

// checkSnapshot requires g to equal the graph AddEdge + Build makes of
// the ascending keys, row for row, with ascending and symmetric rows
// and the same M.
func checkSnapshot(t *testing.T, g *graph.Graph, n int, keys []uint64) {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, k := range keys {
		b.AddEdge(unpackPair(k))
	}
	want := b.Build()
	if g.N() != n || g.M() != want.M() || g.M() != len(keys) {
		t.Fatalf("snapshot (n=%d, m=%d), want (n=%d, m=%d)", g.N(), g.M(), n, want.M())
	}
	for u := 0; u < n; u++ {
		row := g.Neighbors(u)
		if !slices.Equal(row, want.Neighbors(u)) {
			t.Fatalf("row %d = %v, want %v", u, row, want.Neighbors(u))
		}
		for i, v := range row {
			if i > 0 && row[i-1] >= v {
				t.Fatalf("row %d not ascending: %v", u, row)
			}
			if _, ok := slices.BinarySearch(g.Neighbors(int(v)), int32(u)); !ok {
				t.Fatalf("edge {%d,%d} missing from row %d", u, v, v)
			}
		}
	}
}
