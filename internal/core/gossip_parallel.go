package core

import (
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
func (e *gossipEngine) pushGossipRound(g *graph.Graph, senders []int32, informed *bitset.Set, arrival []int32, streams rng.Streams, t int, newly []int32, messages *int64) []int32 {
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
			lr := streams.At(uint64(u), uint64(t))
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
func (e *gossipEngine) pushPullRound(g *graph.Graph, informed *bitset.Set, arrival []int32, streams rng.Streams, t int, newly []int32, messages *int64) []int32 {
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
			lr := streams.At(uint64(u), uint64(t))
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
