// Package protocol is the test oracle of the gossip engine: simple
// per-node implementations of the family of broadcast protocols the
// paper positions flooding within: "flooding time in fact represents
// the 'natural' lower bound for broadcast protocols in dynamic
// networks. For this reason, flooding is often used in order to
// evaluate the relative efficiency of alternative protocols" (Section
// 1, citing [8, 16, 29]). All of them run on any core.Dynamics with
// per-round message accounting. Production code (E16, E20, the
// campaigns, megserve) runs the same protocols on core.Gossip; only
// _test.go files import this package, to check the engine against it
// byte for byte, and a CI lint step enforces that.
//
// Protocols:
//
//   - Flooding — every informed node transmits to all current neighbors
//     every round: the paper's mechanism and the latency lower bound of
//     this family.
//   - Probabilistic flooding (Gnutella-style, the paper's [29]): a node
//     forwards to all neighbors for one round upon becoming informed,
//     and only with probability Beta.
//   - Push gossip (rumor spreading, the paper's [30]): every informed
//     node sends to ONE uniformly random current neighbor per round.
//   - Push–pull gossip: informed nodes push to one random neighbor;
//     uninformed nodes pull from one random neighbor.
//   - Lossy flooding: flooding with every transmission independently
//     lost with probability Loss.
//
// All protocols share the synchronous semantics of the paper's flooding
// definition: nodes informed in round t start acting in round t+1, and
// the graph advances one Markov step per round. The chain is advanced
// only between rounds that are actually evaluated — the run returns as
// soon as the completion (or die-out) check after a round fires, so no
// final snapshot is ever sampled just to be thrown away.
//
// # Randomness discipline
//
// Every per-node random decision is drawn from a counter-based stream
// keyed by (node, round): one word is consumed from the caller's RNG at
// Run start to derive the run's stream base, and the decision of node v
// in round t then comes from rng.At(base, v, t). Decisions are pure
// functions of identity and time, never of iteration order — which is
// what lets the bit-parallel sharded kernels in core (core.Gossip)
// reproduce these reference implementations byte for byte at every
// worker count.
package protocol

import (
	"fmt"

	"meg/internal/bitset"
	"meg/internal/core"
	"meg/internal/rng"
)

// Result records one protocol run.
type Result struct {
	// Rounds is the completion time (or the cap if Completed is false).
	Rounds int
	// Completed reports whether all nodes were informed within the cap.
	Completed bool
	// Trajectory[t] is the number of informed nodes after t rounds.
	Trajectory []int
	// Messages is the total number of point-to-point transmissions sent
	// (including redundant ones to already-informed nodes).
	Messages int64
}

// Protocol is a broadcast protocol runnable on any evolving graph.
type Protocol interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Run executes the protocol from source on d (already Reset by the
	// caller) for at most maxRounds rounds, drawing randomness from r.
	Run(d core.Dynamics, source, maxRounds int, r *rng.RNG) Result
}

// ByName builds a protocol from its canonical spelling — the
// spec-driven constructor used by simulation specs and CLIs. beta and
// loss parameterize the probabilistic and lossy variants and are
// ignored by the others.
func ByName(name string, beta, loss float64) (Protocol, error) {
	switch name {
	case "flooding", "":
		return Flooding{}, nil
	case "probabilistic", "prob":
		if beta <= 0 || beta > 1 {
			return nil, fmt.Errorf("protocol: probabilistic flooding needs beta in (0, 1], got %g", beta)
		}
		return Probabilistic{Beta: beta}, nil
	case "push", "push-gossip":
		return PushGossip{}, nil
	case "push-pull", "pushpull":
		return PushPull{}, nil
	case "lossy":
		if loss < 0 || loss >= 1 {
			return nil, fmt.Errorf("protocol: lossy flooding needs loss in [0, 1), got %g", loss)
		}
		return LossyFlooding{Loss: loss}, nil
	default:
		return nil, fmt.Errorf("protocol: unknown protocol %q (want flooding|probabilistic|push|push-pull|lossy)", name)
	}
}

// checkArgs validates the shared Run preconditions.
func checkArgs(n, source, maxRounds int) {
	if source < 0 || source >= n {
		panic("protocol: source out of range")
	}
	if maxRounds <= 0 {
		panic("protocol: maxRounds must be positive")
	}
}

// Flooding is the paper's flooding mechanism with message accounting.
type Flooding struct{}

// Name implements Protocol.
func (Flooding) Name() string { return "flooding" }

// Run implements Protocol.
func (Flooding) Run(d core.Dynamics, source, maxRounds int, r *rng.RNG) Result {
	n := d.N()
	checkArgs(n, source, maxRounds)
	informed := bitset.New(n)
	informed.Add(source)
	senders := make([]int32, 1, n)
	senders[0] = int32(source)
	res := Result{Trajectory: []int{1}}
	if n == 1 {
		res.Completed = true
		return res
	}
	newly := make([]int32, 0, 64)
	for t := 0; ; t++ {
		g := d.Graph()
		newly = newly[:0]
		for _, u := range senders {
			nbrs := g.Neighbors(int(u))
			res.Messages += int64(len(nbrs))
			for _, v := range nbrs {
				if !informed.Contains(int(v)) {
					informed.Add(int(v))
					newly = append(newly, v)
				}
			}
		}
		senders = append(senders, newly...)
		res.Trajectory = append(res.Trajectory, len(senders))
		if len(senders) == n {
			res.Rounds = t + 1
			res.Completed = true
			return res
		}
		if t+1 == maxRounds {
			break
		}
		d.Step()
	}
	res.Rounds = maxRounds
	return res
}

// Probabilistic is Gnutella-style probabilistic flooding: upon becoming
// informed a node forwards to all its neighbors in the next round with
// probability Beta (the source always forwards), then falls silent.
// Beta = 1 is one-shot flooding (parsimonious with budget 1).
type Probabilistic struct {
	// Beta is the forwarding probability in (0, 1].
	Beta float64
}

// Name implements Protocol.
func (p Probabilistic) Name() string { return fmt.Sprintf("prob-flood(β=%.2f)", p.Beta) }

// Run implements Protocol.
func (p Probabilistic) Run(d core.Dynamics, source, maxRounds int, r *rng.RNG) Result {
	if p.Beta <= 0 || p.Beta > 1 {
		panic("protocol: Beta must be in (0, 1]")
	}
	n := d.N()
	checkArgs(n, source, maxRounds)
	base := r.Uint64()
	informed := bitset.New(n)
	informed.Add(source)
	active := make([]int32, 1, n)
	active[0] = int32(source)
	count := 1
	res := Result{Trajectory: []int{1}}
	if n == 1 {
		res.Completed = true
		return res
	}
	newly := make([]int32, 0, 64)
	for t := 0; ; t++ {
		g := d.Graph()
		newly = newly[:0]
		for _, u := range active {
			nbrs := g.Neighbors(int(u))
			res.Messages += int64(len(nbrs))
			for _, v := range nbrs {
				if !informed.Contains(int(v)) {
					informed.Add(int(v))
					newly = append(newly, v)
				}
			}
		}
		// Freshly informed nodes decide once whether they will forward;
		// the decision is keyed by (node, round informed).
		active = active[:0]
		for _, v := range newly {
			lr := rng.At(base, uint64(v), uint64(t))
			if lr.Bernoulli(p.Beta) {
				active = append(active, v)
			}
		}
		count += len(newly)
		res.Trajectory = append(res.Trajectory, count)
		if count == n {
			res.Rounds = t + 1
			res.Completed = true
			return res
		}
		if len(active) == 0 {
			res.Rounds = t + 1
			return res // died out
		}
		if t+1 == maxRounds {
			break
		}
		d.Step()
	}
	res.Rounds = maxRounds
	return res
}

// PushGossip is classic push rumor spreading: every informed node sends
// the message to one uniformly random current neighbor per round.
type PushGossip struct{}

// Name implements Protocol.
func (PushGossip) Name() string { return "push-gossip" }

// Run implements Protocol.
func (PushGossip) Run(d core.Dynamics, source, maxRounds int, r *rng.RNG) Result {
	n := d.N()
	checkArgs(n, source, maxRounds)
	base := r.Uint64()
	informed := bitset.New(n)
	informed.Add(source)
	members := make([]int32, 1, n)
	members[0] = int32(source)
	res := Result{Trajectory: []int{1}}
	if n == 1 {
		res.Completed = true
		return res
	}
	newly := make([]int32, 0, 64)
	for t := 0; ; t++ {
		g := d.Graph()
		newly = newly[:0]
		for _, u := range members {
			nbrs := g.Neighbors(int(u))
			if len(nbrs) == 0 {
				continue
			}
			res.Messages++
			lr := rng.At(base, uint64(u), uint64(t))
			v := nbrs[lr.Intn(len(nbrs))]
			if !informed.Contains(int(v)) {
				informed.Add(int(v))
				newly = append(newly, v)
			}
		}
		members = append(members, newly...)
		res.Trajectory = append(res.Trajectory, len(members))
		if len(members) == n {
			res.Rounds = t + 1
			res.Completed = true
			return res
		}
		if t+1 == maxRounds {
			break
		}
		d.Step()
	}
	res.Rounds = maxRounds
	return res
}

// PushPull combines push and pull: informed nodes push to one random
// neighbor, uninformed nodes pull from one random neighbor (learning
// the message if that neighbor is informed). Both directions count as
// one message each.
type PushPull struct{}

// Name implements Protocol.
func (PushPull) Name() string { return "push-pull" }

// Run implements Protocol.
func (PushPull) Run(d core.Dynamics, source, maxRounds int, r *rng.RNG) Result {
	n := d.N()
	checkArgs(n, source, maxRounds)
	base := r.Uint64()
	// informed is the state at the start of the round (all decisions
	// read it, enforcing synchrony); next accumulates the round's
	// discoveries and becomes the new informed set at the boundary.
	informed := bitset.New(n)
	informed.Add(source)
	next := bitset.New(n)
	count := 1
	res := Result{Trajectory: []int{1}}
	if n == 1 {
		res.Completed = true
		return res
	}
	for t := 0; ; t++ {
		g := d.Graph()
		next.CopyFrom(informed)
		added := 0
		for u := 0; u < n; u++ {
			nbrs := g.Neighbors(u)
			if len(nbrs) == 0 {
				continue
			}
			lr := rng.At(base, uint64(u), uint64(t))
			v := int(nbrs[lr.Intn(len(nbrs))])
			res.Messages++
			if informed.Contains(u) {
				// push: u → v
				if !next.Contains(v) {
					next.Add(v)
					added++
				}
			} else if informed.Contains(v) {
				// pull: u learns from v (v informed at round start).
				if !next.Contains(u) {
					next.Add(u)
					added++
				}
			}
		}
		informed.CopyFrom(next)
		count += added
		res.Trajectory = append(res.Trajectory, count)
		if count == n {
			res.Rounds = t + 1
			res.Completed = true
			return res
		}
		if t+1 == maxRounds {
			break
		}
		d.Step()
	}
	res.Rounds = maxRounds
	return res
}

// LossyFlooding is flooding over unreliable links: every transmission
// is independently lost with probability Loss. It models the
// faulty-network motivation of the paper's introduction at the message
// level rather than the topology level: the question is how much loss
// flooding absorbs before its completion time degrades.
//
// The loss draws are receiver-keyed: node v's stream for round t
// decides the fate of the messages arriving at v, in v's adjacency
// order, stopping at the first delivery (further copies are redundant).
// Every informed node still transmits to all its neighbors, so the
// message count is Σ_{u∈I_t} deg(u) per round, exactly as for flooding.
type LossyFlooding struct {
	// Loss is the per-message loss probability in [0, 1).
	Loss float64
}

// Name implements Protocol.
func (l LossyFlooding) Name() string { return fmt.Sprintf("lossy-flood(f=%.2f)", l.Loss) }

// Run implements Protocol.
func (l LossyFlooding) Run(d core.Dynamics, source, maxRounds int, r *rng.RNG) Result {
	if l.Loss < 0 || l.Loss >= 1 {
		panic("protocol: Loss must be in [0, 1)")
	}
	n := d.N()
	checkArgs(n, source, maxRounds)
	base := r.Uint64()
	informed := bitset.New(n)
	informed.Add(source)
	senders := make([]int32, 1, n)
	senders[0] = int32(source)
	res := Result{Trajectory: []int{1}}
	if n == 1 {
		res.Completed = true
		return res
	}
	newly := make([]int32, 0, 64)
	for t := 0; ; t++ {
		g := d.Graph()
		// Every informed node transmits to its whole neighborhood.
		for _, u := range senders {
			res.Messages += int64(len(g.Neighbors(int(u))))
		}
		// Receiver side: an uninformed node survives the round uninformed
		// only if every incoming copy is lost.
		newly = newly[:0]
		for v := 0; v < n; v++ {
			if informed.Contains(v) {
				continue
			}
			lr := rng.At(base, uint64(v), uint64(t))
			for _, u := range g.Neighbors(v) {
				if !informed.Contains(int(u)) {
					continue
				}
				if l.Loss > 0 && lr.Bernoulli(l.Loss) {
					continue // this copy lost; try the next informed neighbor
				}
				newly = append(newly, int32(v))
				break
			}
		}
		for _, v := range newly {
			informed.Add(int(v))
		}
		senders = append(senders, newly...)
		res.Trajectory = append(res.Trajectory, len(senders))
		if len(senders) == n {
			res.Rounds = t + 1
			res.Completed = true
			return res
		}
		if t+1 == maxRounds {
			break
		}
		d.Step()
	}
	res.Rounds = maxRounds
	return res
}
