package core

import (
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
// also runs as a Static graph, which arms the skip layer and, for dense
// inputs, the dense-row pull. FloodMultiOpt on the same sequence, from
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
		gs := make([]*graph.Graph, k)
		lists := make([][][]int32, k)
		for i, m := range adj {
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
				for _, kernel := range []Kernel{KernelAuto, KernelPush, KernelPull} {
					for _, par := range []int{1, 3, 8} {
						got := FloodOpt(mk(), src, maxRounds, FloodOptions{Kernel: kernel, Parallelism: par})
						sameResult(t, name+"/"+kernel.String(), got, want)
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
