// Package meg is the public API of this repository: a library for
// simulating information spreading (flooding) in stationary Markovian
// evolving graphs, reproducing Clementi, Monti, Pasquale, Silvestri,
// "Information Spreading in Stationary Markovian Evolving Graphs"
// (IEEE IPDPS 2009).
//
// # Overview
//
// A Markovian evolving graph (MEG) is a Markov chain over graphs on a
// fixed node set. The paper bounds the completion time of the flooding
// mechanism — the process in which every informed node forwards the
// message to all current neighbors each round — on any stationary MEG
// in terms of parameterized node-expansion, and instantiates the bound
// for two concrete models:
//
//   - geometric MEGs: n mobile nodes performing independent random
//     walks on a √n×√n grid, connected within transmission radius R
//     (Theorem 3.4: flooding completes in O(√n/R + log log R) rounds);
//   - edge-MEGs: every potential edge is an independent two-state
//     Markov chain with birth rate p and death rate q (Theorem 4.3:
//     O(log n/log(np̂) + log log(np̂)) rounds, p̂ = p/(p+q)).
//
// # Quick start
//
//	model := meg.NewEdgeMarkovian(meg.EdgeConfig{N: 1024, P: 0.004, Q: 0.5})
//	r := meg.NewRNG(1)
//	model.Reset(r)
//	res := meg.Flood(model, 0, meg.DefaultRoundCap(1024))
//	fmt.Println(res.Rounds, res.Completed)
//
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the per-theorem reproduction
// results.
package meg

import (
	"meg/internal/core"
	"meg/internal/edgemeg"
	"meg/internal/geommeg"
	"meg/internal/graph"
	"meg/internal/mobility"
	"meg/internal/rng"
	"meg/internal/walk"
)

// Dynamics is a Markovian evolving graph: see core.Dynamics.
type Dynamics = core.Dynamics

// FloodResult reports one flooding run: completion time, trajectory of
// informed-set sizes, and the final informed set.
type FloodResult = core.FloodResult

// Graph is an immutable CSR snapshot of an evolving graph.
type Graph = graph.Graph

// RNG is the deterministic random number generator used by every model.
type RNG = rng.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// FloodOptions carries the flooding engine's worker count and run
// callbacks; Parallelism runs the sharded engine, with results
// byte-identical for every worker count. The engine has no path
// options. The geometric models flood without snapshots: each round
// asks "is an informed node within R?" of the cell grid the model
// rebuilds anyway. Every other model floods its snapshots by push while
// the informed set is small and by pull once it passes 1/√d̄ of n
// (clamped to [0.02, 0.5]), the fraction at which the two kernels'
// expected per-round costs balance, with d̄ from the model when it
// knows its stationary degree (core.DegreeHinter), else from each
// snapshot. The engines maintain a DeltaDynamics' snapshots
// incrementally when its expected churn is low and rebuild them
// otherwise (see DeltaDynamics). Every path computes the same result.
type FloodOptions = core.FloodOptions

// MultiOptions tunes FloodMultiOpt (cancellation, progress, and the
// sharded engine's Parallelism).
type MultiOptions = core.MultiOptions

// Parallelizable is implemented by dynamics whose snapshot construction
// can use a worker pool (all models in this repository); snapshots stay
// byte-identical for every worker count. The flooding engine forwards
// its own Parallelism automatically, so most callers never touch this.
type Parallelizable = core.Parallelizable

// DeltaDynamics is implemented by dynamics that can report each step's
// edge churn directly (the edge-MEG in this repository). The engines
// then maintain the snapshot incrementally — rebuilding only the
// adjacency rows the churn touches — instead of re-materializing
// O(n + m) per round, unless the dynamics' ChurnHinter says the churn
// is too high for that to pay: the edge-MEG takes the delta path while
// 2q·d̄, its expected delta endpoints per row, is below 1/8. Results
// are byte-identical either way, and dynamics without it (the
// geometric models) rebuild in full.
type DeltaDynamics = core.DeltaDynamics

// ChurnHinter is optionally implemented by a DeltaDynamics that knows
// its expected per-step churn |births| + |deaths| in closed form; the
// engines use it to choose between incremental and full snapshots. A
// DeltaDynamics without it always takes the incremental path.
type ChurnHinter = core.ChurnHinter

// Delta is the edge difference between consecutive snapshots: births
// and deaths as packed, ascending edge-key lists (graph.PackEdge).
type Delta = graph.Delta

// Flood runs the flooding process on d from the given source with a
// round cap; see core.Flood for exact semantics. On return d is
// positioned at the last evaluated snapshot: the chain advances only
// between evaluated rounds, as in Gossip.
func Flood(d Dynamics, source, maxRounds int) FloodResult {
	return core.Flood(d, source, maxRounds)
}

// FloodOpt is Flood with explicit options (worker count, cancellation,
// progress, phase hook); see core.FloodOpt.
func FloodOpt(d Dynamics, source, maxRounds int, opt FloodOptions) FloodResult {
	return core.FloodOpt(d, source, maxRounds, opt)
}

// FloodMulti floods from every source simultaneously over one shared
// realization of d, packing up to 64 sources per machine word so one
// snapshot scan advances all runs at once; see core.FloodMulti for the
// exact coupling semantics. Call Reset on d first. On return d is
// positioned at the last evaluated snapshot.
func FloodMulti(d Dynamics, sources []int, maxRounds int) []FloodResult {
	return core.FloodMulti(d, sources, maxRounds)
}

// FloodMultiOpt is FloodMulti with explicit options (cancellation,
// progress hooks, sharded-engine parallelism); see core.FloodMultiOpt.
func FloodMultiOpt(d Dynamics, sources []int, maxRounds int, opt MultiOptions) []FloodResult {
	return core.FloodMultiOpt(d, sources, maxRounds, opt)
}

// FloodAll is FloodMulti from every node — the full per-source flooding
// profile of one realization; see core.FloodAll.
func FloodAll(d Dynamics, maxRounds int) []FloodResult {
	return core.FloodAll(d, maxRounds)
}

// FloodingTime estimates the flooding time (max over the given
// sources), resetting d before each run; see core.FloodingTime.
func FloodingTime(d Dynamics, sources []int, maxRounds int, r *RNG) FloodResult {
	return core.FloodingTime(d, sources, maxRounds, r)
}

// DefaultRoundCap returns a safe default cap on flooding rounds.
func DefaultRoundCap(n int) int { return core.DefaultRoundCap(n) }

// GeometricConfig parameterizes a geometric MEG (random-walk mobility
// on a grid); see the geommeg package for field documentation.
type GeometricConfig = geommeg.Config

// Geometric is a geometric Markovian evolving graph.
type Geometric = geommeg.Model

// NewGeometric returns a geometric MEG, panicking on invalid
// configuration (use geommeg.New directly for error returns).
func NewGeometric(cfg GeometricConfig) *Geometric { return geommeg.MustNew(cfg) }

// EdgeConfig parameterizes an edge-Markovian MEG; see the edgemeg
// package for field documentation.
type EdgeConfig = edgemeg.Config

// EdgeMarkovian is an edge-Markovian evolving graph.
type EdgeMarkovian = edgemeg.Model

// NewEdgeMarkovian returns an edge-MEG, panicking on invalid
// configuration (use edgemeg.New directly for error returns).
func NewEdgeMarkovian(cfg EdgeConfig) *EdgeMarkovian { return edgemeg.MustNew(cfg) }

// Mobility is a node mobility process usable with NewMobilityDynamics.
type Mobility = mobility.Mobility

// NewMobilityDynamics turns any Mobility into a Dynamics with
// transmission radius R.
func NewMobilityDynamics(m Mobility, radius float64) Dynamics {
	return mobility.NewDynamics(m, radius)
}

// Static wraps a fixed graph as a constant Dynamics (the paper's static
// baseline). A model's Graph is rebuilt in place by its next Step or
// Reset, so do not step the model g came from while the Static is in use.
func Static(g *Graph) Dynamics { return core.NewStatic(g) }

// GossipProtocol selects a protocol kernel of the gossip engine.
type GossipProtocol = core.GossipProtocol

// Gossip engine protocol kernels: push rumor spreading, push–pull,
// probabilistic (Gnutella-style) flooding, and lossy flooding.
const (
	GossipPush       = core.GossipPush
	GossipPushPull   = core.GossipPushPull
	GossipProbFlood  = core.GossipProbFlood
	GossipLossyFlood = core.GossipLossyFlood
)

// GossipOptions tunes a Gossip run: the protocol parameters (Beta,
// Loss), the sharded engine's Parallelism, and cancellation/progress
// hooks. Results are byte-identical for every Parallelism value.
type GossipOptions = core.GossipOptions

// GossipResult is the outcome of a Gossip run: rounds, completion,
// informed-count trajectory, message count, the final informed set and
// per-node arrival times.
type GossipResult = core.GossipResult

// Gossip runs the selected protocol on the bit-parallel sharded gossip
// engine — the broadcast family (push, push–pull, probabilistic and
// lossy flooding) for which flooding is the latency baseline. Results
// are byte-identical at every worker count; see core.Gossip. Loss 0
// with GossipLossyFlood is plain flooding with message accounting.
func Gossip(d Dynamics, proto GossipProtocol, source, maxRounds int, r *RNG, opt GossipOptions) GossipResult {
	return core.Gossip(d, proto, source, maxRounds, r, opt)
}

// ParseGossip converts a protocol name (push|push-pull|probabilistic|
// lossy) into a GossipProtocol.
func ParseGossip(name string) (GossipProtocol, error) { return core.ParseGossip(name) }

// WalkResult is the outcome of a random-walk run (hitting or covering).
type WalkResult = walk.Result

// WalkHit runs a random walk on d from start until it reaches target;
// see walk.Hit.
func WalkHit(d Dynamics, start, target, maxSteps int, r *RNG) WalkResult {
	return walk.Hit(d, start, target, maxSteps, r)
}

// WalkCover runs a random walk on d from start until every node has
// been visited; see walk.Cover.
func WalkCover(d Dynamics, start, maxSteps int, r *RNG) WalkResult {
	return walk.Cover(d, start, maxSteps, r)
}

// FloodParsimonious runs the k-round-budget (amnesiac) flooding variant
// of the paper's reference [4]; see core.FloodParsimonious.
func FloodParsimonious(d Dynamics, source, activeRounds, maxRounds int) FloodResult {
	return core.FloodParsimonious(d, source, activeRounds, maxRounds)
}
