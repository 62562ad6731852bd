package core

import (
	"sync"

	"meg/internal/graph"
)

// DeltaDynamics is optionally implemented by Dynamics that can report
// each step's edge churn directly: StepDelta advances the chain exactly
// like Step but additionally returns the births and deaths G_t → G_{t+1}
// as packed edge lists. In the low-churn regime the paper centers —
// edge-MEGs with small p and q — the delta is a vanishing fraction of
// the snapshot, and the engines fold it into a graph.Mutable instead of
// paying a full O(n + m) rebuild per round. The edge-MEG implements it;
// the geometric family floods from its cell grid instead (Spreader).
// The engines take the delta path whenever it is expected to pay; see
// ChurnHinter for the rule.
//
// Contract: the realization (the snapshot sequence) must be identical
// whether the chain is advanced by Step or StepDelta, the returned
// delta must satisfy graph.Delta's ordering/disjointness rules, and the
// snapshot returned by Graph must carry sorted adjacency rows (the
// canonical order graph.Mutable maintains), so the incremental view is
// byte-identical to the full rebuild — which is what lets the engines
// pick the path on their own, with no effect on results.
// The returned delta's slices are valid only until the next
// Step/StepDelta/Reset call.
type DeltaDynamics interface {
	Dynamics
	// StepDelta advances the chain one time unit (like Step) and
	// returns the edge delta of the transition.
	StepDelta() graph.Delta
}

// ChurnHinter is optionally implemented by a DeltaDynamics whose
// expected churn is known in closed form, like DegreeHinter for the
// degree. ExpectedChurn returns the expected |births| + |deaths| of one
// step; for the stationary edge-MEG that is q·n·d̄ (deaths q·m̄ balance
// births), so 2·ExpectedChurn/n = 2q·d̄ is the expected number of delta
// endpoints per adjacency row. The engines fold deltas into a
// graph.Mutable only while that figure is below deltaCrossover, and
// rebuild in full otherwise. A DeltaDynamics without the hint always
// takes the delta path. The hint affects speed only, never results.
type ChurnHinter interface {
	ExpectedChurn() float64
}

// deltaCrossover is the expected number of delta endpoints per row
// (2·ExpectedChurn/n) below which the engines take the delta path.
// Measured on edge-MEGs with n from 1k to 64k (full vs delta wall time,
// one shard; the grid is in README "Incremental snapshots"): long
// sub-threshold floods run 3–9× faster on delta up to 0.11, floods that
// finish in a few rounds stay within ±20 % either way, and at q = 1/2
// (2q·d̄ ≈ 22) delta is 54 % slower.
const deltaCrossover = 0.125

// snapshotter is the engines' one snapshot access path: graph() returns
// the current G_t and step() advances the chain, routing through the
// incremental Mutable when the delta path pays (see ChurnHinter) and
// through plain Graph/Step otherwise. The decision happens once here,
// so every engine makes it the same way.
type snapshotter struct {
	d       Dynamics
	dd      DeltaDynamics // non-nil only when the delta path is active
	mut     *graph.Mutable
	workers int
	hook    PhaseHook // nil unless the run is instrumented
}

func newSnapshotter(d Dynamics, workers int, hook PhaseHook) *snapshotter {
	s := &snapshotter{d: d, workers: workers, hook: hook}
	if dd, ok := d.(DeltaDynamics); ok {
		if h, ok := d.(ChurnHinter); !ok || 2*h.ExpectedChurn() < deltaCrossover*float64(d.N()) {
			s.dd = dd
		}
	}
	return s
}

// graph returns the current snapshot G_t. On the delta path the first
// call materializes the dynamics' snapshot once into a Mutable; later
// rounds reuse the incrementally maintained view.
func (s *snapshotter) graph() *graph.Graph {
	h := s.hook
	if h != nil {
		h.BeginPhase(PhaseSnapshot)
	}
	g := s.graphInner()
	if h != nil {
		h.EndPhase(PhaseSnapshot)
	}
	return g
}

func (s *snapshotter) graphInner() *graph.Graph {
	if s.dd == nil {
		return s.d.Graph()
	}
	if s.mut == nil {
		s.mut = getPooledMutable(s.d.Graph())
	}
	return s.mut.Graph()
}

// mutable returns the incrementally maintained snapshot when the delta
// path is active and has materialized, else nil. The flooding engine
// uses it to retire rows.
func (s *snapshotter) mutable() *graph.Mutable { return s.mut }

// mutablePool recycles the per-run graph.Mutable across engine runs —
// the trial-level counterpart of graph.Assembler's round-level recycling.
// A pooled Mutable is fully reinitialized by Reset before reuse, so
// pooling is invisible to results.
var mutablePool sync.Pool

func getPooledMutable(g *graph.Graph) *graph.Mutable {
	if v := mutablePool.Get(); v != nil {
		m := v.(*graph.Mutable)
		m.Reset(g)
		return m
	}
	return graph.NewMutable(g)
}

// release returns the run's Mutable (if any) to the pool. Engines call
// it once when the run finishes; the live snapshot view must not be
// used afterwards — engines hand results out as copies, never as
// aliases of the view, so the deferred release is safe.
func (s *snapshotter) release() {
	if s.mut != nil {
		mutablePool.Put(s.mut)
		s.mut = nil
	}
}

// step advances the chain G_t → G_{t+1}, folding the delta into the
// maintained view on the delta path. The two delta sub-spans are
// reported separately: StepDelta is the models' churn computation
// (PhaseStep, like the full path's Step), ApplyDelta the incremental
// snapshot maintenance (PhaseDeltaApply).
func (s *snapshotter) step() {
	h := s.hook
	if s.dd == nil {
		if h != nil {
			h.BeginPhase(PhaseStep)
		}
		s.d.Step()
		if h != nil {
			h.EndPhase(PhaseStep)
		}
		return
	}
	if h != nil {
		h.BeginPhase(PhaseStep)
	}
	delta := s.dd.StepDelta()
	if h != nil {
		h.EndPhase(PhaseStep)
	}
	if s.mut != nil {
		if h != nil {
			h.BeginPhase(PhaseDeltaApply)
		}
		s.mut.ApplyDelta(delta, s.workers)
		if h != nil {
			h.EndPhase(PhaseDeltaApply)
		}
	}
}
