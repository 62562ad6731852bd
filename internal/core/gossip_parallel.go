package core

import (
	"math/bits"

	"meg/internal/bitset"
	"meg/internal/graph"
	"meg/internal/par"
	"meg/internal/rng"
)

// gossipEngine holds the per-run scratch of the gossip kernels: the
// flooding shardEngine's per-worker frontier bitmaps and newly lists,
// plus per-shard message counters. Every round runs as fork/join phases
// over contiguous shards with shard outputs combined in shard order,
// and — because every random decision is keyed by (node, round), never
// by scan order — the GossipResult is byte-identical for every worker
// count, one shard included.
type gossipEngine struct {
	*shardEngine
	msgs []int64
}

func newGossipEngine(n, workers int) *gossipEngine {
	return &gossipEngine{
		shardEngine: newShardEngine(n, workers),
		msgs:        make([]int64, workers),
	}
}

// addMessages reduces the first `used` shards' message counters into
// the run total (a sum, so shard order is immaterial).
func (e *gossipEngine) addMessages(used int, messages *int64) {
	for shard := 0; shard < used; shard++ {
		*messages += e.msgs[shard]
	}
}

// pushGossipRound is the push-gossip kernel: the senders list
// is split into contiguous shards, each worker drawing its senders'
// targets from their (node, round) streams and marking uninformed hits
// in its private frontier; the shared merge phase applies the union in
// node order.
func (e *gossipEngine) pushGossipRound(g *graph.Graph, senders []int32, informed *bitset.Set, arrival []int32, base uint64, t int, newly []int32, messages *int64) []int32 {
	words := informed.MutableWords()
	e.reset()
	used := e.workers
	if used > len(senders) {
		used = len(senders)
	}
	par.ForBlocks(e.workers, len(senders), func(shard, lo, hi int) {
		f := e.frontiers[shard]
		for i := range f {
			f[i] = 0
		}
		var m int64
		for _, u := range senders[lo:hi] {
			nbrs := g.Neighbors(int(u))
			if len(nbrs) == 0 {
				continue
			}
			m++
			lr := rng.At(base, uint64(u), uint64(t))
			v := nbrs[lr.Intn(len(nbrs))]
			if words[v>>6]&(1<<(uint(v)&63)) == 0 {
				f[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		e.msgs[shard] = m
	})
	e.addMessages(used, messages)
	return e.mergeFrontiers(e.frontiers[:used], words, arrival, t, newly)
}

// pushPullRound is the push-pull kernel: the node space is
// split into contiguous ranges, every node draws its partner from its
// (node, round) stream, and both push hits (anywhere in the node
// space) and pull hits (the scanning node itself) go to the worker's
// private frontier. The informed words are read-only during the scan —
// all decisions see the round-start set — and the shared merge applies
// the union after the join.
func (e *gossipEngine) pushPullRound(g *graph.Graph, informed *bitset.Set, arrival []int32, base uint64, t int, newly []int32, messages *int64) []int32 {
	words := informed.MutableWords()
	n := informed.Len()
	e.reset()
	used := e.workers
	if used > n {
		used = n
	}
	par.ForBlocks(e.workers, n, func(shard, lo, hi int) {
		f := e.frontiers[shard]
		for i := range f {
			f[i] = 0
		}
		var m int64
		for u := lo; u < hi; u++ {
			nbrs := g.Neighbors(u)
			if len(nbrs) == 0 {
				continue
			}
			lr := rng.At(base, uint64(u), uint64(t))
			v := int(nbrs[lr.Intn(len(nbrs))])
			m++
			if words[u>>6]&(1<<(uint(u)&63)) != 0 {
				if words[v>>6]&(1<<(uint(v)&63)) == 0 {
					f[v>>6] |= 1 << (uint(v) & 63)
				}
			} else if words[v>>6]&(1<<(uint(v)&63)) != 0 {
				f[u>>6] |= 1 << (uint(u) & 63)
			}
		}
		e.msgs[shard] = m
	})
	e.addMessages(used, messages)
	return e.mergeFrontiers(e.frontiers[:used], words, arrival, t, newly)
}

// lossyRound is the lossy-flood kernel, receiver-driven: every
// uninformed node scans its adjacency for informed neighbors, drawing
// the fate of each arriving copy from its own (node, round) stream and
// stopping at the first delivery. The uninformed side is split into
// contiguous shards — word ranges of the complement while the
// uninformed set is large, ranges of the shrinking active-set list in
// the straggler regime. The whole per-node scan lives inside one shard,
// so the stream is consumed in adjacency order for every shard count.
// The informed set is only read during the scan; hits are applied
// after the join, in shard order.
func (e *gossipEngine) lossyRound(g *graph.Graph, informed *bitset.Set, arrival []int32, base uint64, t int, loss float64, newly []int32, uninformed int) []int32 {
	words := informed.MutableWords()
	n := informed.Len()
	e.reset()
	if e.uninf.enabled(words, n, uninformed) {
		list := e.uninf.nodes
		par.ForBlocks(e.workers, len(list), func(shard, lo, hi int) {
			out := e.newly[shard][:0]
			for _, v := range list[lo:hi] {
				if scanLossy(g, words, int(v), base, t, loss) {
					arrival[v] = int32(t + 1)
					out = append(out, v)
				}
			}
			e.newly[shard] = out
		})
		start := len(newly)
		newly = e.applyPull(words, newly)
		if len(newly) > start {
			// No deliveries → the list is unchanged; skip compaction.
			e.uninf.compact(words)
		}
		return newly
	}
	par.ForBlocks(e.workers, e.words, func(shard, lo, hi int) {
		out := e.newly[shard][:0]
		for wi := lo; wi < hi; wi++ {
			rem := ^words[wi]
			if rem == 0 {
				continue
			}
			wbase := wi * 64
			for rem != 0 {
				b := bits.TrailingZeros64(rem)
				rem &= rem - 1
				v := wbase + b
				if v >= n {
					break
				}
				if scanLossy(g, words, v, base, t, loss) {
					arrival[v] = int32(t + 1)
					out = append(out, int32(v))
				}
			}
		}
		e.newly[shard] = out
	})
	return e.applyPull(words, newly)
}
