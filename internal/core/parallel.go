package core

import (
	"math/bits"

	"meg/internal/bitset"
	"meg/internal/graph"
	"meg/internal/par"
	"meg/internal/rng"
)

// Parallelizable is optionally implemented by Dynamics whose snapshot
// construction can use a worker pool. Implementations must keep the
// produced snapshots byte-identical for every worker count — the knob
// is an execution hint, never a semantic. The flooding engine hands its
// own Parallelism setting to the dynamics before the first round.
type Parallelizable interface {
	// SetParallelism sets the worker count for subsequent snapshot
	// builds: 0 or 1 means one worker, < 0 means all CPUs.
	SetParallelism(workers int)
}

// engineWorkers resolves an options Parallelism knob to a concrete
// worker count and forwards it to the dynamics when supported. The
// engines always shard; 0 (the zero value) and 1 both mean one shard.
func engineWorkers(parallelism int, d Dynamics) int {
	if parallelism == 0 {
		parallelism = 1
	}
	workers := par.Workers(parallelism)
	if pz, ok := d.(Parallelizable); ok {
		pz.SetParallelism(workers)
	}
	return workers
}

// shardEngine holds the per-run scratch of the flooding kernels: one
// private frontier bitmap per worker plus per-shard newly lists. A
// one-worker run is its one-shard case, in which par.ForBlocks
// degrades to a plain loop. Every round runs as fork/join phases over
// contiguous shards —
// senders are split by position for the push scan, the node space is
// split by word range for the merge and the pull scan — and shard
// outputs are combined in shard order, so the informed set, arrival
// times and trajectory come out byte-identical for every worker count.
type shardEngine struct {
	workers   int
	words     int        // words of the node universe
	frontiers [][]uint64 // per-worker private frontier bitmaps
	newly     [][]int32  // per-shard newly-informed lists
	uninf     activeSet  // shrinking uninformed list of the pull kernels
	hook      PhaseHook  // nil unless the run is instrumented
}

func newShardEngine(n, workers int) *shardEngine {
	words := (n + 63) / 64
	e := &shardEngine{
		workers:   workers,
		words:     words,
		frontiers: make([][]uint64, workers),
		newly:     make([][]int32, workers),
	}
	for i := range e.frontiers {
		e.frontiers[i] = make([]uint64, words)
		e.newly[i] = make([]int32, 0, 256)
	}
	return e
}

// reset truncates every shard's newly list. A round with fewer shards
// than workers leaves the tail shards unexecuted, so the combine loops
// (which always walk all worker slots in order) must never see a stale
// list from an earlier round.
func (e *shardEngine) reset() {
	for i := range e.newly {
		e.newly[i] = e.newly[i][:0]
	}
}

// pushRound is the sharded push kernel: phase 1 splits the senders of
// I_t into contiguous shards, each worker marking the uninformed
// neighbors it discovers in its private frontier bitmap; phase 2 splits
// the node space into contiguous word ranges, ORs the frontiers
// together, and applies the union to the shared informed set and
// arrival array — each word is owned by exactly one shard, so no write
// races and no locks. Phase boundaries are full barriers (par.ForBlocks
// joins before returning).
func (e *shardEngine) pushRound(g *graph.Graph, senders []int32, informed *bitset.Set, arrival []int32, t int, newly []int32) []int32 {
	words := informed.MutableWords()
	e.reset()
	// par.ForBlocks runs min(workers, len(senders)) blocks, so only the
	// first `used` frontiers are written this round; the merge phase
	// must OR exactly those (reset cleared newly, not the frontiers).
	used := e.workers
	if used > len(senders) {
		used = len(senders)
	}
	frontiers := e.frontiers[:used]
	par.ForBlocks(e.workers, len(senders), func(shard, lo, hi int) {
		f := e.frontiers[shard]
		for i := range f {
			f[i] = 0
		}
		for _, u := range senders[lo:hi] {
			for _, v := range g.Neighbors(int(u)) {
				if words[v>>6]&(1<<(uint(v)&63)) == 0 {
					f[v>>6] |= 1 << (uint(v) & 63)
				}
			}
		}
	})
	return e.mergeFrontiers(frontiers, words, arrival, t, newly)
}

// mergeFrontiers is the shared phase 2 of every frontier-marking
// kernel: the node space is split into contiguous word ranges, the
// given frontiers are ORed together, and the union is applied to the
// shared informed words and arrival array — each word owned by exactly
// one shard, discoveries collected per shard and concatenated in shard
// order, so newly comes out in node order for every worker count. The
// span is reported as PhaseMerge, nested inside the enclosing round's
// PhaseKernel.
func (e *shardEngine) mergeFrontiers(frontiers [][]uint64, words []uint64, arrival []int32, t int, newly []int32) []int32 {
	h := e.hook
	if h != nil {
		h.BeginPhase(PhaseMerge)
	}
	par.ForBlocks(e.workers, e.words, func(shard, lo, hi int) {
		out := e.newly[shard][:0]
		for wi := lo; wi < hi; wi++ {
			m := uint64(0)
			for _, f := range frontiers {
				m |= f[wi]
			}
			m &^= words[wi]
			if m == 0 {
				continue
			}
			words[wi] |= m
			base := wi * 64
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				v := int32(base + b)
				arrival[v] = int32(t + 1)
				out = append(out, v)
			}
		}
		e.newly[shard] = out
	})
	for shard := 0; shard < e.workers; shard++ {
		newly = append(newly, e.newly[shard]...)
	}
	if h != nil {
		h.EndPhase(PhaseMerge)
	}
	return newly
}

// receiverTest is receiverRound's per-node test on the round's
// snapshot g: with loss 0 it is pull flooding's (pullHit, any informed
// neighbor), otherwise lossy gossip's (scanLossy, drawing from
// streams). A concrete value rather than a func value, so the scan
// runs the test in its own loop with pullHit inlined.
type receiverTest struct {
	g       *graph.Graph
	loss    float64
	streams rng.Streams
}

// hits appends to out, in order, the candidates that receive the
// message in round t, stamping their arrival.
func (rt receiverTest) hits(words []uint64, cand []int32, arrival []int32, t int, out []int32) []int32 {
	if rt.loss == 0 {
		for _, v := range cand {
			if pullHit(rt.g, words, int(v)) {
				arrival[v] = int32(t + 1)
				out = append(out, v)
			}
		}
		return out
	}
	for _, v := range cand {
		if scanLossy(rt.g, words, int(v), rt.streams, t, rt.loss) {
			arrival[v] = int32(t + 1)
			out = append(out, v)
		}
	}
	return out
}

// receiverRound is the sharded receiver-driven scan shared by the pull
// flooding kernel and the lossy gossip kernel: the uninformed side is
// split into contiguous shards — word ranges of the complement while
// the uninformed set is large, ranges of the shrinking active-set list
// in the straggler regime — each worker asking rt which of its nodes
// receive the message this round and recording hits in its shard's
// newly list. The informed set is only read during the scan —
// hits are applied after the join, in shard order, so discoveries never
// feed back into the same round (the paper's synchronous semantics) and
// the result does not depend on the shard count. Both enumerations
// visit the same nodes ascending (list shards are contiguous slices of
// an ascending list, the complement goes word by word), and rt sees
// one node's whole test inside one shard, so the result is
// byte-identical either way.
func (e *shardEngine) receiverRound(informed *bitset.Set, arrival []int32, t int, newly []int32, uninformed int, rt receiverTest) []int32 {
	words := informed.MutableWords()
	n := informed.Len()
	e.reset()
	if e.uninf.enabled(words, n, uninformed) {
		list := e.uninf.nodes
		par.ForBlocks(e.workers, len(list), func(shard, lo, hi int) {
			e.newly[shard] = rt.hits(words, list[lo:hi], arrival, t, e.newly[shard][:0])
		})
		start := len(newly)
		newly = e.applyPull(words, newly)
		if len(newly) > start {
			// A round with no discoveries leaves the list untouched, so
			// stalled straggler rounds skip the compaction walk.
			e.uninf.compact(words)
		}
		return newly
	}
	par.ForBlocks(e.workers, e.words, func(shard, lo, hi int) {
		out := e.newly[shard][:0]
		var buf [64]int32
		for wi := lo; wi < hi; wi++ {
			rem := ^words[wi]
			if rem == 0 {
				continue
			}
			// The word's uninformed nodes, ascending.
			cand := buf[:0]
			base := wi * 64
			for rem != 0 {
				b := bits.TrailingZeros64(rem)
				rem &= rem - 1
				v := base + b
				if v >= n {
					break
				}
				cand = append(cand, int32(v))
			}
			out = rt.hits(words, cand, arrival, t, out)
		}
		e.newly[shard] = out
	})
	return e.applyPull(words, newly)
}

// applyPull is the post-join apply of the receiver-driven kernels —
// the pull-side merge span: shard outputs folded into the shared
// informed words in shard order.
func (e *shardEngine) applyPull(words []uint64, newly []int32) []int32 {
	h := e.hook
	if h != nil {
		h.BeginPhase(PhaseMerge)
	}
	for shard := 0; shard < e.workers; shard++ {
		for _, v := range e.newly[shard] {
			words[v>>6] |= 1 << (uint(v) & 63)
		}
		newly = append(newly, e.newly[shard]...)
	}
	if h != nil {
		h.EndPhase(PhaseMerge)
	}
	return newly
}
