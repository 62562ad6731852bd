// Package core implements the paper's central objects (Clementi, Monti,
// Pasquale, Silvestri: "Information Spreading in Stationary Markovian
// Evolving Graphs", IPDPS 2009):
//
//   - the Markovian evolving graph abstraction (Definitions 2.1 and 3.1):
//     a Markov chain over graphs on a fixed node set, exposed here as the
//     Dynamics interface;
//   - the flooding process of Section 2 (I_{t+1} = I_t ∪ N(I_t), with the
//     neighborhood taken in the snapshot at time t) and its completion
//     time;
//   - parameterized node expansion, the (h,k)-expander of Definition 2.2,
//     together with exact neighborhood-size computation;
//   - the bound machinery of Lemma 2.4, Theorem 2.5 and Corollary 2.6
//     that converts an expansion profile into a flooding-time bound.
//
// Concrete substrates (geometric-MEG, edge-MEG, the additional mobility
// models) live in their own packages and plug in through Dynamics.
package core

import (
	"meg/internal/graph"
	"meg/internal/rng"
)

// Dynamics is a Markovian evolving graph: a (possibly derived) Markov
// chain whose states project to graphs over the fixed node set [0, N).
//
// The protocol is: Reset samples the initial snapshot G_0 — stationary
// models sample their stationary distribution, realizing the paper's
// "perfect simulation" — then alternating Graph/Step walks the chain:
// Graph returns the current G_t and Step advances G_t → G_{t+1}.
//
// The *graph.Graph returned by Graph is only valid until the next Step
// or Reset call; implementations are free to reuse buffers, and the
// models here do: the geometric family and the edge-MEG assemble every
// snapshot into the same arrays behind the same pointer, so a graph
// held across Step or Reset shows the next snapshot once Graph rebuilds
// it. Engines copy what they keep (graph.Mutable does).
type Dynamics interface {
	// N returns the (fixed) number of nodes.
	N() int
	// Reset replaces the current state with a freshly sampled initial
	// snapshot, drawing all randomness from r. Implementations keep r
	// (or a derived generator) for subsequent Step calls.
	Reset(r *rng.RNG)
	// Graph returns the current snapshot G_t.
	Graph() *graph.Graph
	// Step advances the chain one time unit.
	Step()
}

// Static wraps a fixed graph as a (trivially Markovian, trivially
// stationary) Dynamics whose snapshot never changes. It is the baseline
// the paper compares against: flooding time on the static stationary
// graph equals its diameter.
type Static struct {
	G *graph.Graph
}

// NewStatic returns the constant dynamics that always shows g. A model's
// snapshot is rebuilt in place by its next Step or Reset, so g must not
// come from a model that steps while the Static is in use.
func NewStatic(g *graph.Graph) *Static { return &Static{G: g} }

// N implements Dynamics.
func (s *Static) N() int { return s.G.N() }

// Reset implements Dynamics; it is a no-op since the graph is constant.
func (s *Static) Reset(*rng.RNG) {}

// Graph implements Dynamics.
func (s *Static) Graph() *graph.Graph { return s.G }

// Step implements Dynamics; it is a no-op.
func (s *Static) Step() {}

// Sequence replays an explicit, deterministic sequence of snapshots:
// the "evolving graph" of Lemma 2.4 (no randomness at all). After the
// last snapshot the sequence repeats from the beginning, which suffices
// for periodic constructions; tests that need a fixed horizon simply
// provide enough snapshots.
type Sequence struct {
	Graphs []*graph.Graph
	t      int
}

// NewSequence returns a Sequence over the given non-empty snapshot list.
// All snapshots must have the same node count.
func NewSequence(gs ...*graph.Graph) *Sequence {
	if len(gs) == 0 {
		panic("core: NewSequence needs at least one snapshot")
	}
	n := gs[0].N()
	for _, g := range gs {
		if g.N() != n {
			panic("core: Sequence snapshots must share the node set")
		}
	}
	return &Sequence{Graphs: gs}
}

// N implements Dynamics.
func (s *Sequence) N() int { return s.Graphs[0].N() }

// Reset implements Dynamics; it rewinds to the first snapshot.
func (s *Sequence) Reset(*rng.RNG) { s.t = 0 }

// Graph implements Dynamics.
func (s *Sequence) Graph() *graph.Graph { return s.Graphs[s.t%len(s.Graphs)] }

// Step implements Dynamics.
func (s *Sequence) Step() { s.t++ }
