package core

import "fmt"

// Phase identifies one timed span of an engine round. The engines
// bracket each span with BeginPhase/EndPhase on the run's PhaseHook
// (when one is set), so an observer can attribute a round's wall time
// to snapshot materialization, the kernel proper, the sharded merge,
// the chain advance, or the incremental delta apply.
type Phase uint8

const (
	// PhaseSnapshot is snapshotter.graph(): materializing the round's
	// G_t (full rebuild, or the lazily maintained incremental view).
	PhaseSnapshot Phase = iota
	// PhaseKernel is the round's frontier computation — the push/pull
	// flooding kernels, a multi-group batch sweep, or a gossip kernel.
	PhaseKernel
	// PhaseMerge is the sharded engine's frontier-merge span, a sub-span
	// nested inside PhaseKernel. It occurs at every Parallelism, one
	// shard included; only the Spreader path and the multi-source sweep
	// have no merge.
	PhaseMerge
	// PhaseStep is the chain advance G_t → G_{t+1}: Dynamics.Step, or
	// DeltaDynamics.StepDelta on the delta path.
	PhaseStep
	// PhaseDeltaApply is graph.Mutable.ApplyDelta folding a step's churn
	// into the incrementally maintained snapshot (delta path only).
	PhaseDeltaApply
	// PhaseCount sizes per-phase arrays; it is not a phase.
	PhaseCount
)

// String returns the phase's metric-label spelling.
func (p Phase) String() string {
	switch p {
	case PhaseSnapshot:
		return "snapshot"
	case PhaseKernel:
		return "kernel"
	case PhaseMerge:
		return "merge"
	case PhaseStep:
		return "step"
	case PhaseDeltaApply:
		return "delta_apply"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// RoundStats is the run telemetry a PhaseHook receives after every
// evaluated round: the 1-based round number, the informed-set size
// after the round, and the number of nodes newly informed in it (the
// frontier growth the paper's per-round analysis tracks).
type RoundStats struct {
	Round    int
	Informed int
	Newly    int
}

// PhaseHook observes engine execution: BeginPhase/EndPhase bracket the
// timed spans of each round and RoundDone delivers the round's
// telemetry. Hooks are strictly observational — implementations must
// never feed back into RNG draws, iteration order, or any other
// result-bearing state, which is what keeps hooked runs byte-identical
// to hookless ones (enforced by flood's hook determinism test and the
// metricshooks analyzer's nil-guard discipline: every call site checks
// for nil first, so the zero-hook path costs one predictable branch).
//
// All methods run on the engine goroutine of one run; a hook instance
// is never shared across concurrently running trials.
type PhaseHook interface {
	BeginPhase(Phase)
	EndPhase(Phase)
	RoundDone(RoundStats)
}
