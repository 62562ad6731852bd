package core

import (
	"math/bits"

	"meg/internal/bitset"
	"meg/internal/graph"
	"meg/internal/par"
)

// FloodMulti floods from every given source simultaneously over a
// single realization of d: one snapshot sequence G_0, G_1, … is shared
// by all runs, instead of regenerating the dynamics once per source the
// way FloodingTime does. Sources are packed 64 per machine word, so one
// scan of a snapshot advances up to 64 floods at once (the bit-parallel
// multi-source BFS technique, adapted to evolving snapshots): per round
// the batch costs O(n + m) word operations total rather than per
// source.
//
// Semantics per source are exactly Flood's — I_{t+1} = I_t ∪ N(I_t) in
// G_t, synchronous rounds, the same Trajectory/Arrival/Rounds — and on
// a deterministic dynamics (Static, Sequence) the k-th result is
// bit-identical to a solo Flood from sources[k]. On random dynamics the
// marginal law of each result matches a solo run on that realization;
// jointly the runs are coupled through the shared snapshots, which is
// the point (and is harmless for stationary-model estimates that
// average or maximize over sources).
//
// FloodMulti does not Reset d: the caller controls the initial
// distribution. The chain advances only between evaluated rounds, so
// on return d is positioned at the last evaluated snapshot: the round
// in which every run completed, or the maxRounds-th.
func FloodMulti(d Dynamics, sources []int, maxRounds int) []FloodResult {
	return FloodMultiOpt(d, sources, maxRounds, MultiOptions{})
}

// MultiOptions tunes FloodMultiOpt. The zero value is FloodMulti.
type MultiOptions struct {
	// Parallelism is the intra-batch worker count: the node space is
	// split into contiguous shards, each worker updating the masks and
	// arrival entries of its own shard, with per-shard informed-count
	// deltas reduced in shard order — results are byte-identical for
	// every value. 0 or 1 runs the same sweep as one shard; < 0 uses
	// all CPUs. A Parallelizable dynamics receives the same worker
	// count for its snapshot builds.
	Parallelism int
	// Stop, if non-nil, is polled once per round; when it returns true
	// the batch aborts with every unfinished flood left incomplete
	// (Rounds set to the cap), matching FloodOptions.Stop semantics.
	Stop func() bool
	// Progress, if non-nil, is called after every evaluated round with
	// the round number t+1 and the largest informed count across the
	// batch's floods. It runs on the flooding goroutine; keep it cheap.
	Progress func(round, informed int)
	// Hook, if non-nil, observes the batch: phase spans per round, and
	// RoundDone with Informed set to the largest informed count across
	// the batch's floods (matching Progress) and Newly to the total
	// nodes informed this round summed over floods. Observational only;
	// see FloodOptions.Hook.
	Hook PhaseHook
}

// FloodMultiOpt is FloodMulti with cancellation and progress hooks.
func FloodMultiOpt(d Dynamics, sources []int, maxRounds int, opt MultiOptions) []FloodResult {
	n := d.N()
	if len(sources) == 0 {
		panic("core: FloodMulti needs at least one source")
	}
	if maxRounds <= 0 {
		panic("core: maxRounds must be positive")
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			panic("core: flood source out of range")
		}
	}

	results := make([]FloodResult, len(sources))
	for i, s := range sources {
		arrival := make([]int32, n)
		for j := range arrival {
			arrival[j] = -1
		}
		arrival[s] = 0
		results[i] = FloodResult{
			Source:     s,
			Trajectory: append(make([]int, 0, 64), 1),
			Arrival:    arrival,
		}
	}
	if n == 1 {
		for i := range results {
			results[i].Completed = true
			results[i].Informed = informedFromArrival(results[i].Arrival)
		}
		return results
	}

	groups := make([]*multiGroup, 0, (len(sources)+63)/64)
	for base := 0; base < len(sources); base += 64 {
		size := len(sources) - base
		if size > 64 {
			size = 64
		}
		groups = append(groups, newMultiGroup(n, sources[base:base+size], results[base:base+size]))
	}

	workers := engineWorkers(opt.Parallelism, d)
	snap := newSnapshotter(d, workers, opt.Hook)
	defer snap.release()
	remaining := len(groups)
	h := opt.Hook
	prevTotal := len(sources) // every flood starts with its source informed
	for t := 0; t < maxRounds && remaining > 0; t++ {
		if opt.Stop != nil && opt.Stop() {
			break
		}
		g := snap.graph()
		if h != nil {
			h.BeginPhase(PhaseKernel)
		}
		for _, grp := range groups {
			if grp.done {
				continue
			}
			grp.round(g, t, workers)
			if grp.done {
				remaining--
			}
		}
		if h != nil {
			h.EndPhase(PhaseKernel)
		}
		if remaining > 0 && t+1 < maxRounds {
			snap.step()
		}
		if opt.Progress != nil || h != nil {
			most, total := 0, 0
			for _, grp := range groups {
				for _, c := range grp.counts {
					if c > most {
						most = c
					}
					total += c
				}
			}
			if opt.Progress != nil {
				opt.Progress(t+1, most)
			}
			if h != nil {
				h.RoundDone(RoundStats{Round: t + 1, Informed: most, Newly: total - prevTotal})
				prevTotal = total
			}
		}
	}
	for i := range results {
		if !results[i].Completed {
			results[i].Rounds = maxRounds
		}
		results[i].Informed = informedFromArrival(results[i].Arrival)
	}
	return results
}

// FloodAll is FloodMulti from every node: the exact per-source flooding
// profile of one realization, from which the realization's flooding
// time is the worst entry (WorstResult). Memory is dominated by the
// n×n int32 arrival matrix — 4n² bytes (256 MiB at n = 8192) — plus
// O(n) words per 64-source group, so it is meant for the moderate n of
// exact experiments, not the largest sweeps.
func FloodAll(d Dynamics, maxRounds int) []FloodResult {
	sources := make([]int, d.N())
	for i := range sources {
		sources[i] = i
	}
	return FloodMulti(d, sources, maxRounds)
}

// multiGroup runs up to 64 floods bit-parallel: masks[v] has bit k set
// iff node v is informed in the group's k-th flood.
type multiGroup struct {
	results []FloodResult // aliases the caller's slice
	masks   []uint64      // current informed membership per node
	next    []uint64      // scratch for the synchronous update
	counts  []int         // informed-set size per flood
	full    uint64        // mask with one bit per flood in the group
	done    bool          // every flood in the group completed

	// shardCounts holds per-shard informed-count deltas of a round;
	// reduced into counts in shard order after the join.
	shardCounts [][]int
}

func newMultiGroup(n int, sources []int, results []FloodResult) *multiGroup {
	g := &multiGroup{
		results: results,
		masks:   make([]uint64, n),
		next:    make([]uint64, n),
		counts:  make([]int, len(sources)),
	}
	for k, s := range sources {
		g.masks[s] |= 1 << uint(k)
		g.counts[k] = 1
	}
	if len(sources) == 64 {
		g.full = ^uint64(0)
	} else {
		g.full = 1<<uint(len(sources)) - 1
	}
	return g
}

// round advances every incomplete flood of the group one synchronous
// step on snapshot g: next[v] = masks[v] | ⋁_{u ∈ N(v)} masks[u], all
// 64 floods at once per word operation. Reading only masks (written
// last round) while writing next keeps the update synchronous. The
// node space is split into contiguous shards, each worker computing
// next[v] and arrival updates for its own nodes only and accumulating
// informed-count deltas in a shard-private array. Deltas are reduced
// in shard order after the join, so the group's state is
// byte-identical for every worker count, one included.
func (grp *multiGroup) round(g *graph.Graph, t, workers int) {
	n := len(grp.masks)
	masks, next := grp.masks, grp.next
	full := grp.full
	if len(grp.shardCounts) < workers {
		grp.shardCounts = make([][]int, workers)
		for i := range grp.shardCounts {
			grp.shardCounts[i] = make([]int, len(grp.results))
		}
	}
	par.ForBlocks(workers, n, func(shard, lo, hi int) {
		local := grp.shardCounts[shard]
		for i := range local {
			local[i] = 0
		}
		for v := lo; v < hi; v++ {
			acc := masks[v]
			if acc != full {
				for _, u := range g.Neighbors(v) {
					acc |= masks[u]
				}
			}
			next[v] = acc
			if diff := acc &^ masks[v]; diff != 0 {
				for diff != 0 {
					k := bits.TrailingZeros64(diff)
					diff &= diff - 1
					grp.results[k].Arrival[v] = int32(t + 1)
					local[k]++
				}
			}
		}
	})
	used := workers
	if used > n {
		used = n
	}
	for shard := 0; shard < used; shard++ {
		for k, d := range grp.shardCounts[shard] {
			grp.counts[k] += d
		}
	}
	grp.masks, grp.next = next, masks
	grp.finishRound(n, t)
}

// finishRound appends the per-flood trajectory entries and marks floods
// (and the group) complete once every node is informed.
func (grp *multiGroup) finishRound(n, t int) {
	grp.done = true
	for k := range grp.results {
		res := &grp.results[k]
		if res.Completed {
			continue
		}
		res.Trajectory = append(res.Trajectory, grp.counts[k])
		if grp.counts[k] == n {
			res.Rounds = t + 1
			res.Completed = true
		} else {
			grp.done = false
		}
	}
}

// informedFromArrival reconstructs the final informed set from the
// arrival times (arrival ≥ 0 ⇔ informed).
func informedFromArrival(arrival []int32) *bitset.Set {
	s := bitset.New(len(arrival))
	for v, a := range arrival {
		if a >= 0 {
			s.Add(v)
		}
	}
	return s
}
