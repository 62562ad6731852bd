package core

import (
	"fmt"
	"math"
	"testing"

	"meg/internal/graph"
	"meg/internal/rng"
)

// FuzzFloodKernels checks the flooding engine against an independent
// oracle on generated snapshot sequences: n from 1 to 200, one to eight
// snapshots drawn as G(n, p) from the seed, with extra edges toggled by
// the raw bytes (each triple names a snapshot and an endpoint pair).
// Every kernel (auto, push, pull) at every shard count in {1, 3, 8},
// with the active-set crossover pinned to never and to always, must
// reproduce the oracle's FloodResult exactly. A single-snapshot input
// also runs as a Static graph. FloodMultiOpt on the same sequence, from
// up to 70 sources (two 64-source groups), must match the oracle's solo
// run from each source. The seed corpus lives in
// testdata/fuzz/FuzzFloodKernels and runs under plain go test.
func FuzzFloodKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw, steps, density uint8, seed uint64, source, rounds, multi uint8, edges []byte) {
		n := 1 + int(nRaw)%200
		k := 1 + int(steps)%8
		p := float64(density) / 255
		p *= p // most inputs sit near the connectivity threshold
		adj := make([][]bool, k)
		r := rng.New(seed)
		for i := range adj {
			adj[i] = make([]bool, n*n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if r.Bernoulli(p) {
						adj[i][u*n+v] = true
					}
				}
			}
		}
		for i := 0; i+2 < len(edges); i += 3 {
			u, v := int(edges[i+1])%n, int(edges[i+2])%n
			if u > v {
				u, v = v, u
			}
			if u != v {
				m := adj[int(edges[i])%k]
				m[u*n+v] = !m[u*n+v]
			}
		}
		gs, lists := snapshotsOf(n, adj)
		src := int(source) % n
		maxRounds := 1 + int(rounds)
		want := floodOracle(lists, src, maxRounds)

		dyns := map[string]func() Dynamics{"sequence": func() Dynamics { return NewSequence(gs...) }}
		if k == 1 {
			dyns["static"] = func() Dynamics { return NewStatic(gs[0]) }
		}
		for name, mk := range dyns {
			for _, frac := range []float64{0, 1} {
				restore := SetActiveSetFracForTest(frac)
				for _, kernel := range kernels {
					for _, par := range []int{1, 3, 8} {
						got := floodPinned(kernel, mk(), src, maxRounds, FloodOptions{Parallelism: par})
						sameResult(t, name+"/"+kernel, got, want)
					}
				}
				restore()
			}
		}

		sources := make([]int, 1+int(multi)%70)
		solo := map[int]FloodResult{src: want}
		for i := range sources {
			sources[i] = (src + 37*i) % n
			if _, ok := solo[sources[i]]; !ok {
				solo[sources[i]] = floodOracle(lists, sources[i], maxRounds)
			}
		}
		for _, par := range []int{1, 3, 8} {
			for i, got := range FloodMultiOpt(NewSequence(gs...), sources, maxRounds, MultiOptions{Parallelism: par}) {
				sameResult(t, "multi", got, solo[sources[i]])
			}
		}
	})
}

// snapshotsOf builds each upper-triangle matrix (m[u*n+v] for u < v)
// as a graph, with sorted rows, and as the oracle's adjacency lists.
func snapshotsOf(n int, mats [][]bool) ([]*graph.Graph, [][][]int32) {
	gs := make([]*graph.Graph, len(mats))
	lists := make([][][]int32, len(mats))
	for i, m := range mats {
		b := graph.NewBuilder(n)
		lists[i] = make([][]int32, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if m[u*n+v] {
					b.AddEdge(u, v)
					lists[i][u] = append(lists[i][u], int32(v))
					lists[i][v] = append(lists[i][v], int32(u))
				}
			}
		}
		gs[i] = b.Build()
	}
	return gs, lists
}

// floodOracle is I_{t+1} = I_t ∪ N_{G_t}(I_t) written out directly: in
// round t every node informed by round t informs its neighbors in
// snapshot t mod len(lists). It shares no code with the engine; lists
// holds each snapshot's adjacency lists.
func floodOracle(lists [][][]int32, source, maxRounds int) FloodResult {
	n := len(lists[0])
	arrival := make([]int32, n)
	for v := range arrival {
		arrival[v] = -1
	}
	arrival[source] = 0
	res := FloodResult{Source: source, Trajectory: []int{1}, Arrival: arrival, Rounds: maxRounds}
	informed := 1
	for t := 0; t < maxRounds && informed < n; t++ {
		adj := lists[t%len(lists)]
		for u := range adj {
			if arrival[u] < 0 || int(arrival[u]) > t {
				continue
			}
			for _, v := range adj[u] {
				if arrival[v] < 0 {
					arrival[v] = int32(t + 1)
					informed++
				}
			}
		}
		res.Trajectory = append(res.Trajectory, informed)
		if informed == n {
			res.Rounds, res.Completed = t+1, true
		}
	}
	if n == 1 {
		res.Rounds, res.Completed = 0, true
	}
	res.Informed = informedFromArrival(arrival)
	return res
}

// FuzzFloodDelta checks the delta snapshot path against the same
// oracle: a generated edge-MEG chain on n from 1 to 200 nodes, k from 1
// to 32 snapshots (G_0 ~ G(n, p_0), then every present edge dies with
// probability q and every absent one is born with q·p̂/(1−p̂)), replayed
// cyclically with the delta of every step, last to first included.
// p_0 ≠ p̂ starts the chain away from stationarity, so the average
// degree, and with it the engine's push/pull threshold, drifts.
// Every kernel at Parallelism 1, 2 and 8, with the active-set crossover
// at never, always and the default, floods it on the delta path (the
// sequence implements DeltaDynamics without a ChurnHinter, so the
// engines always take it) and must reproduce the oracle's FloodResult over the full snapshots. Once
// the pull kernel reaches the straggler list, the Mutable retires the
// informed rows, so this is also the end-to-end check of Retire. The
// seed corpus lives in testdata/fuzz/FuzzFloodDelta and runs under
// plain go test.
func FuzzFloodDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw, steps, start, density, churn uint8, seed uint64, source, rounds uint8) {
		n := 1 + int(nRaw)%200
		k := 1 + int(steps)%32
		phat := float64(density) / 255
		phat *= phat // most inputs sit near the connectivity threshold
		q := float64(churn) / 255
		born := 1.0
		if phat < 1 {
			born = math.Min(1, q*phat/(1-phat))
		}
		p0 := float64(start) / 255
		p0 *= p0
		r := rng.New(seed)
		present := make([]bool, n*n) // present[u*n+v] for u < v
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				present[u*n+v] = r.Bernoulli(p0)
			}
		}
		chain := make([][]bool, k)
		for i := range chain {
			chain[i] = append([]bool(nil), present...)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if present[u*n+v] {
						present[u*n+v] = !r.Bernoulli(q)
					} else {
						present[u*n+v] = r.Bernoulli(born)
					}
				}
			}
		}
		gs, lists := snapshotsOf(n, chain)
		deltas := make([]graph.Delta, k)
		for i, cur := range chain {
			next := chain[(i+1)%k]
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					switch was, is := cur[u*n+v], next[u*n+v]; {
					case is && !was:
						deltas[i].Births = append(deltas[i].Births, graph.PackEdge(u, v))
					case was && !is:
						deltas[i].Deaths = append(deltas[i].Deaths, graph.PackEdge(u, v))
					}
				}
			}
		}
		src := int(source) % n
		maxRounds := 1 + int(rounds)
		want := floodOracle(lists, src, maxRounds)

		for _, frac := range []float64{0, 1, defaultActiveSetFrac} {
			restore := SetActiveSetFracForTest(frac)
			for _, kernel := range kernels {
				for _, par := range []int{1, 2, 8} {
					d := &deltaSequence{Sequence: NewSequence(gs...), deltas: deltas}
					got := floodPinned(kernel, d, src, maxRounds, FloodOptions{Parallelism: par})
					sameResult(t, fmt.Sprintf("delta/%s/P%d/frac=%g", kernel, par, frac), got, want)
				}
			}
			restore()
		}
	})
}

// deltaSequence is a Sequence that also reports each step's edge
// delta: deltas[i] takes snapshot i to snapshot i+1 mod k.
type deltaSequence struct {
	*Sequence
	deltas []graph.Delta
}

func (s *deltaSequence) StepDelta() graph.Delta {
	d := s.deltas[s.t%len(s.deltas)]
	s.t++
	return d
}
