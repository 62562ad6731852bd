package core

import (
	"fmt"
	"strings"

	"meg/internal/bitset"
	"meg/internal/graph"
	"meg/internal/rng"
)

// GossipProtocol selects one of the bitset-frontier protocol kernels —
// the rumor-spreading / gossip family the paper frames flooding as the
// latency lower bound of (Section 1; Clementi et al., arXiv:1302.3828
// and arXiv:1111.0583 study exactly these processes on evolving
// graphs). Flooding itself runs on the dedicated engine (FloodOpt).
type GossipProtocol int

const (
	// GossipPush is push rumor spreading: every informed node sends to
	// one uniformly random current neighbor per round.
	GossipPush GossipProtocol = iota
	// GossipPushPull adds the pull direction: uninformed nodes query one
	// random neighbor and learn the message if that neighbor is informed.
	GossipPushPull
	// GossipProbFlood is Gnutella-style probabilistic flooding: a node
	// forwards to all neighbors for one round upon becoming informed,
	// and only with probability Beta (the source always forwards).
	GossipProbFlood
	// GossipLossyFlood is flooding with every transmission independently
	// lost with probability Loss.
	GossipLossyFlood
)

// String returns the protocol's canonical spec spelling.
func (p GossipProtocol) String() string {
	switch p {
	case GossipPush:
		return "push"
	case GossipPushPull:
		return "push-pull"
	case GossipProbFlood:
		return "probabilistic"
	case GossipLossyFlood:
		return "lossy"
	default:
		return fmt.Sprintf("GossipProtocol(%d)", int(p))
	}
}

// ParseGossip converts a protocol name (the spec spelling or its
// aliases) into a GossipProtocol. "flooding" is rejected: flooding runs
// on the flooding engine, not the gossip one.
func ParseGossip(name string) (GossipProtocol, error) {
	switch strings.ToLower(name) {
	case "push", "push-gossip":
		return GossipPush, nil
	case "push-pull", "pushpull":
		return GossipPushPull, nil
	case "probabilistic", "prob":
		return GossipProbFlood, nil
	case "lossy":
		return GossipLossyFlood, nil
	default:
		return 0, fmt.Errorf("core: unknown gossip protocol %q (want push|push-pull|probabilistic|lossy)", name)
	}
}

// GossipOptions tunes a Gossip run. The zero value runs one shard of
// the sharded engine on full snapshots.
type GossipOptions struct {
	// Beta is GossipProbFlood's forwarding probability in (0, 1].
	Beta float64
	// Loss is GossipLossyFlood's per-message loss probability in [0, 1).
	Loss float64
	// Parallelism is the intra-run worker count of the sharded engine
	// (0 or 1 = one shard, < 0 = all CPUs). Because every random
	// decision is keyed by (node, round) — never by iteration order —
	// the GossipResult is byte-identical for every value. A
	// Parallelizable dynamics receives the same worker count for its
	// snapshot builds.
	Parallelism int
	// Stop, if non-nil, is polled once per round; when it returns true
	// the run aborts with Completed == false and Rounds set to the cap,
	// matching FloodOptions.Stop semantics.
	Stop func() bool
	// Progress, if non-nil, is called after every evaluated round with
	// the round number t+1 and the informed count. It runs on the
	// calling goroutine; keep it cheap.
	Progress func(round, informed int)
	// Hook, if non-nil, observes the run: phase timing spans and
	// per-round telemetry. Observational only; see FloodOptions.Hook.
	// The chain advances at the end of a round here, so PhaseStep time
	// is attributed to the round it prepares.
	Hook PhaseHook
}

// GossipResult records one protocol run on the gossip engine: Rounds,
// Completed, Trajectory and Messages, plus the final informed set and
// per-node arrival times the bitset engine computes for free. The
// first four must equal those of the per-node oracle in
// internal/protocol, which only tests import.
type GossipResult struct {
	// Source is the initiator node.
	Source int
	// Rounds is the completion time, the die-out round (probabilistic
	// flooding), or the cap if neither fired.
	Rounds int
	// Completed reports whether all nodes were informed within the cap.
	Completed bool
	// Trajectory[t] is the number of informed nodes after t rounds.
	Trajectory []int
	// Messages is the total number of point-to-point transmissions sent
	// (including redundant ones to already-informed nodes).
	Messages int64
	// Informed is the final informed set (owned by the caller).
	Informed *bitset.Set
	// Arrival[v] is the round at which v became informed (0 for the
	// source), or -1 if v was never informed.
	Arrival []int32
}

// RoundsToHalf returns the first t with Trajectory[t] ≥ n/2, or -1.
func (r GossipResult) RoundsToHalf(n int) int {
	for t, m := range r.Trajectory {
		if 2*m >= n {
			return t
		}
	}
	return -1
}

// Gossip runs the selected protocol from source on d for at most
// maxRounds rounds, built on the same bitset frontiers and
// shard-parallel phases as the flooding engine. It is the only gossip
// engine in production; the per-node implementations in
// internal/protocol are its test oracle. GossipLossyFlood with Loss 0
// is flooding with message accounting (Σ deg over informed nodes per
// round).
//
// Randomness: one word is consumed from r to derive the run's stream
// base; the decision of node v in round t is then drawn from
// rng.At(base, v, t), through the run's rng.Streams. Decisions are
// pure functions of (node, round), so the result is byte-identical for
// every Parallelism value and to the oracle on the same seeds.
//
// Gossip does not Reset d: the caller controls the initial
// distribution. The chain advances only between evaluated rounds —
// completion is checked before Step, so the final snapshot is never
// resampled for nothing.
func Gossip(d Dynamics, proto GossipProtocol, source, maxRounds int, r *rng.RNG, opt GossipOptions) GossipResult {
	n := d.N()
	if source < 0 || source >= n {
		panic("core: gossip source out of range")
	}
	if maxRounds <= 0 {
		panic("core: maxRounds must be positive")
	}
	switch proto {
	case GossipProbFlood:
		if opt.Beta <= 0 || opt.Beta > 1 {
			panic("core: gossip Beta must be in (0, 1]")
		}
	case GossipLossyFlood:
		if opt.Loss < 0 || opt.Loss >= 1 {
			panic("core: gossip Loss must be in [0, 1)")
		}
	}
	streams := rng.StreamsOf(r.Uint64())
	informed := bitset.New(n)
	informed.Add(source)
	arrival := make([]int32, n)
	for i := range arrival {
		arrival[i] = -1
	}
	arrival[source] = 0
	res := GossipResult{
		Source:     source,
		Trajectory: make([]int, 1, 64),
		Informed:   informed,
		Arrival:    arrival,
	}
	res.Trajectory[0] = 1
	if n == 1 {
		res.Completed = true
		return res
	}

	workers := engineWorkers(opt.Parallelism, d)
	snap := newSnapshotter(d, workers, opt.Hook)
	defer snap.release()
	eng := newGossipEngine(n, workers)
	eng.hook = opt.Hook
	// senders holds exactly the informed set in discovery order; for
	// probabilistic flooding, active holds the subset still forwarding
	// (its own buffer — it is rewritten every round while senders grows).
	senders := make([]int32, 1, n)
	senders[0] = int32(source)
	active := senders
	if proto == GossipProbFlood {
		active = append(make([]int32, 0, n), int32(source))
	}
	count := 1
	newly := make([]int32, 0, 256)

	h := opt.Hook
	for t := 0; ; t++ {
		if opt.Stop != nil && opt.Stop() {
			break
		}
		g := snap.graph()
		newly = newly[:0]
		if h != nil {
			h.BeginPhase(PhaseKernel)
		}
		switch proto {
		case GossipPush:
			newly = eng.pushGossipRound(g, senders, informed, arrival, streams, t, newly, &res.Messages)
		case GossipPushPull:
			newly = eng.pushPullRound(g, informed, arrival, streams, t, newly, &res.Messages)
		case GossipProbFlood:
			// The active nodes transmit to their whole neighborhoods: the
			// flooding push kernel over the active list.
			res.Messages += degreeSum(g, active)
			newly = eng.pushRound(g, active, informed, arrival, t, newly)
		case GossipLossyFlood:
			res.Messages += degreeSum(g, senders)
			// Receiver-driven: every uninformed node scans its
			// adjacency for informed neighbors, drawing the fate of
			// each arriving copy from its own (node, round) stream.
			newly = eng.receiverRound(informed, arrival, t, newly, n-count, receiverTest{g: g, loss: opt.Loss, streams: streams})
		}
		if proto == GossipProbFlood {
			// Freshly informed nodes decide once whether they forward,
			// keyed by (node, round informed).
			active = active[:0]
			for _, v := range newly {
				lr := streams.At(uint64(v), uint64(t))
				if lr.Bernoulli(opt.Beta) {
					active = append(active, v)
				}
			}
		}
		if h != nil {
			h.EndPhase(PhaseKernel)
		}
		senders = append(senders, newly...)
		count += len(newly)
		res.Trajectory = append(res.Trajectory, count)
		if opt.Progress != nil {
			opt.Progress(t+1, count)
		}
		if h != nil {
			h.RoundDone(RoundStats{Round: t + 1, Informed: count, Newly: len(newly)})
		}
		if count == n {
			res.Rounds = t + 1
			res.Completed = true
			return res
		}
		if proto == GossipProbFlood && len(active) == 0 {
			res.Rounds = t + 1
			return res // died out
		}
		if t+1 == maxRounds {
			break
		}
		snap.step()
	}
	res.Rounds = maxRounds
	return res
}

// degreeSum returns Σ deg(u) over the given nodes — the per-round
// message count of the flooding-style protocols (every listed node
// transmits to its whole current neighborhood).
func degreeSum(g *graph.Graph, nodes []int32) int64 {
	var sum int64
	for _, u := range nodes {
		sum += int64(len(g.Neighbors(int(u))))
	}
	return sum
}

// scanLossy decides whether uninformed node v receives the message in
// round t: it walks v's adjacency, and each informed neighbor's copy
// survives with probability 1−loss, drawn from v's (node, round)
// stream in adjacency order. The stream is derived at the first draw,
// so nodes with no informed neighbor derive none. Loss 0 is pullHit,
// which receiverTest runs instead.
func scanLossy(g *graph.Graph, words []uint64, v int, streams rng.Streams, t int, loss float64) bool {
	var lr rng.RNG
	drawn := false
	for _, u := range g.Neighbors(v) {
		if words[u>>6]&(1<<(uint(u)&63)) == 0 {
			continue
		}
		if !drawn {
			lr, drawn = streams.At(uint64(v), uint64(t)), true
		}
		if lr.Bernoulli(loss) {
			continue // this copy lost; try the next informed neighbor
		}
		return true
	}
	return false
}
