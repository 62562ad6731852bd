package core

import (
	"math"
	"math/bits"

	"meg/internal/bitset"
	"meg/internal/graph"
	"meg/internal/rng"
)

// FloodResult records one run of the flooding process.
type FloodResult struct {
	// Source is the initiator node s with I_0 = {s}.
	Source int
	// Rounds is the completion time T(s): the first time step at which
	// every node is informed. If the run hit the round cap before
	// completing, Rounds equals the cap and Completed is false.
	Rounds int
	// Completed reports whether all nodes were informed within the cap.
	Completed bool
	// Trajectory[t] = |I_t|, the number of informed nodes after t
	// rounds; Trajectory[0] == 1 and, when Completed, the final entry
	// equals n.
	Trajectory []int
	// Informed is the final informed set (owned by the caller after
	// Flood returns).
	Informed *bitset.Set
	// Arrival[v] is the round at which v became informed (0 for the
	// source), or -1 if v was never informed. In temporal-graph terms
	// this is the earliest-arrival (foremost journey) time from the
	// source, of which the flooding time is the maximum.
	Arrival []int32
}

// Eccentricity returns the largest finite arrival time — the temporal
// eccentricity of the source. For a completed run it equals Rounds.
func (r FloodResult) Eccentricity() int {
	worst := 0
	for _, a := range r.Arrival {
		if int(a) > worst {
			worst = int(a)
		}
	}
	return worst
}

// GrowthFactors returns the per-round multiplicative growth
// m_{t+1}/m_t of the informed-set size, the quantity Lemma 2.4 bounds
// below by 1+k_i while |I_t| ≤ h_i.
func (r FloodResult) GrowthFactors() []float64 {
	if len(r.Trajectory) < 2 {
		return nil
	}
	out := make([]float64, len(r.Trajectory)-1)
	for t := 0; t+1 < len(r.Trajectory); t++ {
		out[t] = float64(r.Trajectory[t+1]) / float64(r.Trajectory[t])
	}
	return out
}

// RoundsToHalf returns the first t with |I_t| ≥ n/2, or -1 if the run
// never got that far. The paper's analysis splits at n/2; measuring the
// split point lets experiments test both phases.
func (r FloodResult) RoundsToHalf(n int) int {
	for t, m := range r.Trajectory {
		if 2*m >= n {
			return t
		}
	}
	return -1
}

// pullThresholdFor derives the snapshot path's push→pull switch
// fraction from an average-degree estimate: the switch point that
// balances the two kernels’ expected costs is f* ≈ 1/√d̄ for average
// degree d̄ (push costs ≈ f·n·d̄ probes, pull costs ≈ (1−f)·n·min(d̄, 1/f)
// with early exit), clamped to [0.02, 0.5].
func pullThresholdFor(avgDeg float64) float64 {
	if avgDeg <= 1 || math.IsNaN(avgDeg) {
		return 0.5
	}
	f := 1 / math.Sqrt(avgDeg)
	if f < 0.02 {
		return 0.02
	}
	if f > 0.5 {
		return 0.5
	}
	return f
}

// pinnedKernel is "" in production, where the snapshot path chooses
// push or pull every round. Tests pin "push" or "pull" through
// SetKernelForTest to check each kernel against the others.
var pinnedKernel string

// SetKernelForTest pins the snapshot path's flooding kernel to "push"
// or "pull" ("auto" restores the per-round choice) and returns a
// restore func. Test-only knob: every kernel computes the same
// FloodResult, so production always chooses. A Spreader dynamics
// ignores the pin; hide its Spreader (struct{ Dynamics }{d}) to run the
// pinned kernel.
func SetKernelForTest(kernel string) func() {
	switch kernel {
	case "auto":
		kernel = ""
	case "push", "pull":
	default:
		panic("core: SetKernelForTest wants auto|push|pull, got " + kernel)
	}
	old := pinnedKernel
	pinnedKernel = kernel
	return func() { pinnedKernel = old }
}

// DegreeHinter is optionally implemented by Dynamics whose expected
// snapshot degree is known in closed form (e.g. (n−1)·p̂ for the
// stationary edge-MEG). The hint positions the snapshot path's
// push→pull switch without per-round measurement; it has no effect on
// results.
type DegreeHinter interface {
	ExpectedDegree() float64
}

// Spreader is optionally implemented by Dynamics that can compute a
// flooding round straight from their own state, without materializing
// the snapshot G_t. On a geometric-MEG, I_{t+1} = I_t ∪ {v : ∃u ∈ I_t,
// d(P_u, P_v) ≤ R} needs node positions only, so the model answers it
// from its cell grid instead of writing every edge of G_t into a CSR.
// Every geometric-family model implements it (geommeg.Model and
// mobility.Dynamics, through the shared celldelta.Grid). FloodOpt
// takes this path whenever the dynamics implements it: each round
// calls IndexInformed and then Spread, and the chain advances with
// Step; Graph is never called. Tests reach the snapshot kernels, the
// reference the spread is checked against, by hiding the interface
// (struct{ Dynamics }{d}).
type Spreader interface {
	Dynamics
	// IndexInformed prepares Spread for the informed set I at the
	// current time step (for a geometric model: the round's cell list
	// and the per-cell split into informed and uninformed members).
	IndexInformed(informed *bitset.Set)
	// Spread appends N_{G_t}(I) \ I to newly, in any order, and
	// returns it. I must be the set last passed to IndexInformed, with
	// no Step or Reset in between. Spread does not modify informed.
	Spread(informed *bitset.Set, newly []int32) []int32
}

// FloodOptions carries the flooding engine's worker count and run
// callbacks. The engine path is not an option: a Spreader dynamics
// floods from its own state, and every other dynamics floods its
// snapshots by push while the informed set is small and by pull once
// it passes 1/√d̄ of n (clamped to [0.02, 0.5]), with d̄ from the
// DegreeHinter if implemented, else from each snapshot's average
// degree. Every path computes the same FloodResult.
type FloodOptions struct {
	// Parallelism is the intra-trial worker count of the sharded
	// engine: node space and sender lists are split into contiguous
	// shards, each worker writes a private frontier word-range, and the
	// per-round merge applies shard outputs in shard order — so the
	// FloodResult is byte-identical for every value. 0 or 1 runs the
	// same engine as one shard; < 0 uses all CPUs. If the dynamics
	// implements Parallelizable it is handed the same worker count for
	// its snapshot builds. On the Spreader path the spread itself is
	// serial and the workers go to the dynamics' own step.
	Parallelism int
	// Stop, if non-nil, is polled once per round; when it returns true
	// the run aborts immediately with Completed == false and Rounds set
	// to the cap (indistinguishable from hitting the cap, which is the
	// right reading for a cancelled run). Polling is O(1) per round, so
	// cancellation latency is one flooding round.
	Stop func() bool
	// Progress, if non-nil, is called after every evaluated round with
	// the round number t+1 and |I_{t+1}|. It runs on the flooding
	// goroutine; keep it cheap.
	Progress func(round, informed int)
	// Hook, if non-nil, observes the run: phase timing spans and
	// per-round telemetry (see PhaseHook). Hooks are observational only
	// and every call site is nil-guarded, so results are byte-identical
	// with or without one and the zero-hook path costs a branch.
	Hook PhaseHook
}

// Flood runs the flooding process of Section 2 on d starting from
// source: I_0 = {source}; thereafter I_{t+1} = I_t ∪ N(I_t) where the
// out-neighborhood is taken in the snapshot G_t, and the chain then
// advances. It stops as soon as all nodes are informed or after
// maxRounds rounds, whichever comes first.
//
// Flood does not Reset d: the caller controls the initial distribution
// (stationary or otherwise). On return the dynamics is positioned at
// the last evaluated snapshot: the chain advances only between
// evaluated rounds, never after the final one.
//
// maxRounds must be positive; a cap of 4n is a safe default for
// connected-regime experiments (see DefaultRoundCap).
//
// Flood runs with default options; use FloodOpt to set the worker count
// or attach callbacks.
func Flood(d Dynamics, source, maxRounds int) FloodResult {
	return FloodOpt(d, source, maxRounds, FloodOptions{})
}

// FloodOpt is Flood with explicit options. A Spreader dynamics computes
// each round from its own state and no snapshot is built; every other
// dynamics runs the push/pull snapshot kernels. Only that step differs,
// the round bookkeeping is shared, and every path produces the same
// FloodResult on the same dynamics state and RNG stream (the kernels
// never draw randomness; only the dynamics does).
func FloodOpt(d Dynamics, source, maxRounds int, opt FloodOptions) FloodResult {
	n := d.N()
	if source < 0 || source >= n {
		panic("core: flood source out of range")
	}
	if maxRounds <= 0 {
		panic("core: maxRounds must be positive")
	}
	informed := bitset.New(n)
	informed.Add(source)
	arrival := make([]int32, n)
	for i := range arrival {
		arrival[i] = -1
	}
	arrival[source] = 0
	res := FloodResult{
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
	thresh := 0.0
	if h, ok := d.(DegreeHinter); ok {
		thresh = pullThresholdFor(h.ExpectedDegree())
	}
	workers := engineWorkers(opt.Parallelism, d)
	// The Spreader path replaces the snapshot and the kernel choice
	// outright; its chain advance is a plain Step.
	sp, _ := d.(Spreader)
	snap := newSnapshotter(d, workers, opt.Hook)
	defer snap.release()
	var eng *shardEngine
	if sp == nil {
		eng = newShardEngine(n, workers)
		eng.hook = opt.Hook
	}
	retired := false
	// count is |I_t|. On the snapshot path senders holds exactly the
	// nodes of I_t, the push kernel's input; nodes discovered during
	// round t are appended only after the round completes, enforcing
	// the paper's synchronous semantics (a node informed at step t does
	// not transmit until step t+1). The Spreader path needs no list.
	count := 1
	var senders []int32
	if sp == nil {
		senders = make([]int32, 1, n)
		senders[0] = int32(source)
	}
	newly := make([]int32, 0, 256)
	h := opt.Hook
	for t := 0; t < maxRounds; t++ {
		if opt.Stop != nil && opt.Stop() {
			break
		}
		var g *graph.Graph
		if sp != nil {
			if h != nil {
				h.BeginPhase(PhaseSnapshot)
			}
			sp.IndexInformed(informed)
			if h != nil {
				h.EndPhase(PhaseSnapshot)
			}
		} else {
			g = snap.graph()
		}
		if h != nil {
			h.BeginPhase(PhaseKernel)
		}
		pull := false
		switch {
		case sp != nil:
			// no snapshot, no direction choice
		case pinnedKernel != "":
			pull = pinnedKernel == "pull"
		case eng.uninf.active:
			// Sticky: the straggler list and the retired rows below
			// assume every later round pulls, and a per-round AvgDegree
			// threshold could otherwise flip back to push.
			pull = true
		default:
			th := thresh
			if th <= 0 {
				th = pullThresholdFor(g.AvgDegree())
			}
			pull = float64(count) >= th*float64(n)
		}
		newly = newly[:0]
		if sp != nil {
			newly = sp.Spread(informed, newly)
			for _, v := range newly {
				informed.Add(int(v))
				arrival[v] = int32(t + 1)
			}
		} else if pull {
			newly = eng.receiverRound(informed, arrival, t, newly, n-count, receiverTest{g: g})
		} else {
			newly = eng.pushRound(g, senders, informed, arrival, t, newly)
		}
		if h != nil {
			h.EndPhase(PhaseKernel)
		}
		if pull && eng.uninf.active && !retired {
			// Straggler regime: from here on the pull kernel reads only
			// uninformed rows, so the delta apply stops rebuilding the
			// informed ones. The O(m) key-set build is delta-apply work.
			retired = true
			if mut := snap.mutable(); mut != nil {
				if h != nil {
					h.BeginPhase(PhaseDeltaApply)
				}
				mut.Retire(informed)
				if h != nil {
					h.EndPhase(PhaseDeltaApply)
				}
			}
		}
		if sp == nil {
			senders = append(senders, newly...)
		}
		count += len(newly)
		res.Trajectory = append(res.Trajectory, count)
		if count < n && t+1 < maxRounds {
			// Only a round that follows reads the advanced chain.
			snap.step()
		}
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
	}
	res.Rounds = maxRounds
	return res
}

// pullHit reports whether uninformed node v has an informed neighbor
// in the round-start set: a CSR walk with first-hit early exit.
func pullHit(g *graph.Graph, words []uint64, v int) bool {
	for _, u := range g.Neighbors(v) {
		if words[u>>6]&(1<<(uint(u)&63)) != 0 {
			return true
		}
	}
	return false
}

// Round-cap constants: the default cap is
// max(minRoundCap, roundCapC · ⌈log₂ n⌉ · roundCapGrowthGuard, ⌈√n⌉).
// Connected-regime flooding completes in O(log n) rounds (edge-MEG,
// Corollary 4.5) or Θ(√n/R) = Θ(√(n/log n)) rounds (geometric-MEG,
// Theorem 3.4 — about 100 rounds at n = 512k with the default radius).
// The c·log₂(n)·guard term covers both with an order of magnitude of
// headroom through every n this repository simulates, and the ⌈√n⌉
// term keeps the cap above the geometric models' diameter-limited
// growth asymptotically (√n ≥ √(n/log n)·anything sensible), so no
// healthy default-parameter flood can hit the cap at any n. A stalled
// run still stops quickly: the previous linear cap of 4n+32 spun a
// stalled 512k-node flood for ~2M rounds; the guarded cap stops it
// after 1216.
const (
	minRoundCap         = 64
	roundCapC           = 4
	roundCapGrowthGuard = 16
)

// DefaultRoundCap returns the default cap on flooding rounds for a
// graph on n nodes: max(64, 64·⌈log₂ n⌉, ⌈√n⌉). Any connected-regime
// process in this repository finishes well below it; hitting the cap
// signals a disconnected or sub-threshold configuration. Processes that
// legitimately need more rounds — sub-threshold ablations, tiny
// transmission radii, long static paths — must pass an explicit
// MaxRounds (every API that consumes the default, from core.Flood
// through flood.Options to the run spec, accepts an override).
func DefaultRoundCap(n int) int {
	if n < 2 {
		return minRoundCap
	}
	c := roundCapC * roundCapGrowthGuard * bits.Len(uint(n-1)) // ⌈log₂ n⌉
	if s := int(math.Ceil(math.Sqrt(float64(n)))); s > c {
		c = s // diameter guard for the geometric models at huge n
	}
	if c < minRoundCap {
		c = minRoundCap
	}
	return c
}

// FloodingTime estimates the flooding time of d — the maximum of T(s)
// over sources s — by running the process from each of the given
// sources, resetting d with a child of r before each run. It returns
// the worst (largest) result. For node-transitive stationary models a
// small sample of sources converges quickly to the true maximum; tests
// on small graphs pass all n sources for exactness.
func FloodingTime(d Dynamics, sources []int, maxRounds int, r *rng.RNG) FloodResult {
	return FloodingTimeOpt(d, sources, maxRounds, r, FloodOptions{})
}

// FloodingTimeOpt is FloodingTime with explicit engine options.
func FloodingTimeOpt(d Dynamics, sources []int, maxRounds int, r *rng.RNG, opt FloodOptions) FloodResult {
	if len(sources) == 0 {
		panic("core: FloodingTime needs at least one source")
	}
	var worst FloodResult
	for i, s := range sources {
		d.Reset(r.Split())
		res := FloodOpt(d, s, maxRounds, opt)
		if i == 0 || beats(res, worst) {
			worst = res
		}
	}
	return worst
}

// WorstResult returns the worst (slowest) of the given results, with
// any incomplete run beating any complete one — the max that defines
// flooding time. It panics on an empty slice.
func WorstResult(results []FloodResult) FloodResult {
	if len(results) == 0 {
		panic("core: WorstResult needs at least one result")
	}
	worst := results[0]
	for _, res := range results[1:] {
		if beats(res, worst) {
			worst = res
		}
	}
	return worst
}

// beats reports whether a is a worse (slower) outcome than b, treating
// any incomplete run as worse than any complete one.
func beats(a, b FloodResult) bool {
	if a.Completed != b.Completed {
		return !a.Completed
	}
	return a.Rounds > b.Rounds
}
