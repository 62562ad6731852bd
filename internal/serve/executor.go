// Package serve is the simulation service layer: a spec executor, a
// content-addressed result cache, a job scheduler with a bounded worker
// pool and single-flight deduplication, and the HTTP/SSE API that
// cmd/megserve exposes. cmd/megsim runs through the same Executor, so
// the CLI and the service share one code path from spec to result.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"meg/internal/core"
	"meg/internal/experiments"
	"meg/internal/flood"
	"meg/internal/metrics"
	"meg/internal/spec"
	"meg/internal/stats"
)

// Event is one entry of a job's progress stream.
type Event struct {
	// Type is round|telemetry|trial|experiment|done|canceled|error.
	Type string `json:"type"`
	// Trial is the trial index for round/telemetry/trial events.
	Trial int `json:"trial,omitempty"`
	// Round and Informed carry the per-round informed count of round
	// events.
	Round    int `json:"round,omitempty"`
	Informed int `json:"informed,omitempty"`
	// Rounds and Completed summarize a finished trial.
	Rounds    int  `json:"rounds,omitempty"`
	Completed bool `json:"completed,omitempty"`
	// Message carries free-form detail (experiment/error events).
	Message string `json:"message,omitempty"`
	// Telemetry carries the round's phase timings on telemetry events —
	// the per-round stream multiplexed into SSE next to the round
	// events. Never part of Result: timings are wall-clock observations,
	// and Result stays byte-deterministic.
	Telemetry *metrics.RoundTelemetry `json:"telemetry,omitempty"`
}

// TrialResult is the JSON form of one trial's outcome.
type TrialResult struct {
	Source       int   `json:"source"`
	Rounds       int   `json:"rounds"`
	Completed    bool  `json:"completed"`
	RoundsToHalf int   `json:"roundsToHalf"`
	Messages     int64 `json:"messages,omitempty"`
}

// Result is the JSON result of one executed spec. It is fully
// deterministic for a given canonical spec (no timestamps, sorted map
// keys), so re-running a spec reproduces the cached bytes exactly.
type Result struct {
	// Hash is the spec's content address.
	Hash string `json:"hash"`
	// Spec is the canonical spec that produced the result.
	Spec spec.Spec `json:"spec"`
	// Model and Protocol describe the instantiated run (campaign jobs).
	Model    string `json:"model,omitempty"`
	Protocol string `json:"protocol,omitempty"`
	// Trials holds the per-trial outcomes (campaign jobs).
	Trials []TrialResult `json:"trials,omitempty"`
	// CompletedTrials/IncompleteTrials count trials that finished
	// flooding vs. hit the round cap.
	CompletedTrials  int `json:"completedTrials"`
	IncompleteTrials int `json:"incompleteTrials"`
	// Rounds summarizes the completed trials' spreading times.
	Rounds stats.Summary `json:"rounds"`
	// Trajectory is trial 0's per-round informed count.
	Trajectory []int `json:"trajectory,omitempty"`
	// Report is the experiment report (experiment jobs only).
	Report *experiments.Report `json:"report,omitempty"`
}

// Runner executes specs. Executor is the real implementation; the
// scheduler depends on the interface so tests can gate or count runs.
type Runner interface {
	// Execute runs the spec to completion, feeding progress events to
	// sink (which may be nil and must be safe for concurrent calls).
	// It returns ctx.Err() when cancelled.
	Execute(ctx context.Context, s spec.Spec, sink func(Event)) (*Result, error)
}

// Executor runs simulation specs through the flood/protocol/experiment
// engines. The zero value is ready for use; one Executor is safe for
// concurrent Execute calls.
type Executor struct {
	invocations atomic.Int64

	// Metrics, when set before the first Execute, receives spec-level
	// run counters and aggregated engine-phase timings. Purely
	// observational: results are byte-identical with or without it.
	Metrics *Metrics
}

// Invocations returns how many Execute calls started — the observable
// the single-flight and cache tests (and the smoke test) assert on.
func (e *Executor) Invocations() int64 { return e.invocations.Load() }

// Execute implements Runner.
func (e *Executor) Execute(ctx context.Context, s spec.Spec, sink func(Event)) (*Result, error) {
	e.invocations.Add(1)
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	hash, err := c.Hash()
	if err != nil {
		return nil, err
	}
	var res *Result
	switch {
	case c.Experiment != "":
		res, err = e.runExperiment(ctx, c, hash, sink)
		e.countJob("experiment", c.Experiment, err)
	case c.Protocol.Name == "flooding":
		res, err = e.runFlooding(ctx, c, hash, sink)
		e.countJob(c.Model.Name, "flooding", err)
	default:
		res, err = e.runProtocol(ctx, c, hash, sink)
		e.countJob(c.Model.Name, c.Protocol.Name, err)
	}
	return res, err
}

// countJob records the run on the executor-jobs counter.
func (e *Executor) countJob(model, protocol string, err error) {
	outcome := "ok"
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outcome = "canceled"
	case err != nil:
		outcome = "error"
	}
	e.Metrics.execJob(model, protocol, outcome)
}

// phaseHooks builds the per-trial phase-hook factory shared by the
// flooding and protocol runners. Each trial gets its own PhaseRecorder
// (the campaign runner calls the factory once per trial, on the trial's
// worker goroutine); when sink != nil the recorder multiplexes
// per-round telemetry events into the progress stream, and finish folds
// every recorder's totals into the executor's Metrics. The factory is
// nil when nothing would consume the timings, so the engines take the
// zero-cost hookless path.
func (e *Executor) phaseHooks(sink func(Event)) (factory func(trial int) core.PhaseHook, finish func()) {
	if sink == nil && e.Metrics == nil {
		return nil, func() {}
	}
	var mu sync.Mutex
	var recs []*metrics.PhaseRecorder
	factory = func(trial int) core.PhaseHook {
		pr := metrics.NewPhaseRecorder(nil)
		if sink != nil {
			pr.OnRound = func(rt metrics.RoundTelemetry) {
				sink(Event{Type: "telemetry", Trial: trial, Round: rt.Round, Informed: rt.Informed, Telemetry: &rt})
			}
		}
		mu.Lock()
		recs = append(recs, pr)
		mu.Unlock()
		return pr
	}
	finish = func() {
		if e.Metrics == nil {
			return
		}
		var total metrics.PhaseTotals
		mu.Lock()
		for _, pr := range recs {
			total.Merge(pr.Totals())
		}
		mu.Unlock()
		e.Metrics.phaseTotals(total)
	}
	return factory, finish
}

// publicSpec strips execution-only hints from the spec embedded in a
// Result: Workers, Parallelism and Receivers are excluded from the
// content hash, so they must not leak into the cached bytes either —
// otherwise the same hash would serve different bytes depending on
// which submitter simulated first.
func publicSpec(c spec.Spec) spec.Spec {
	c.Workers = 0
	c.Parallelism = 0
	c.Receivers = nil
	return c
}

// runFlooding executes a flooding campaign on the optimized engine.
func (e *Executor) runFlooding(ctx context.Context, c spec.Spec, hash string, sink func(Event)) (*Result, error) {
	factory, desc, err := c.NewFactory()
	if err != nil {
		return nil, err
	}
	opt, err := flood.OptionsFromSpec(c)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		opt.OnRound = func(trial, round, informed int) {
			sink(Event{Type: "round", Trial: trial, Round: round, Informed: informed})
		}
		opt.OnTrialDone = func(trial int, t flood.Trial) {
			sink(Event{Type: "trial", Trial: trial, Rounds: t.Result.Rounds, Completed: t.Result.Completed})
		}
	}
	hooks, finishHooks := e.phaseHooks(sink)
	opt.Hook = hooks
	camp, err := flood.RunContext(ctx, factory, opt)
	finishHooks()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Hash:             hash,
		Spec:             publicSpec(c),
		Model:            desc,
		Protocol:         "flooding",
		CompletedTrials:  len(camp.Rounds),
		IncompleteTrials: camp.Incomplete,
		Rounds:           camp.Summary,
	}
	for _, t := range camp.Trials {
		res.Trials = append(res.Trials, TrialResult{
			Source:       t.Result.Source,
			Rounds:       t.Result.Rounds,
			Completed:    t.Result.Completed,
			RoundsToHalf: t.RoundsToHalf,
		})
	}
	if len(camp.Trials) > 0 {
		res.Trajectory = camp.Trials[0].Result.Trajectory
	}
	return res, nil
}

// runProtocol executes a campaign of a non-flooding protocol on the
// bit-parallel sharded gossip engine, through the same campaign runner
// megsim and the bench suite use.
func (e *Executor) runProtocol(ctx context.Context, c spec.Spec, hash string, sink func(Event)) (*Result, error) {
	factory, desc, err := c.NewFactory()
	if err != nil {
		return nil, err
	}
	opt, err := flood.ProtocolOptionsFromSpec(c)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		opt.OnRound = func(trial, round, informed int) {
			sink(Event{Type: "round", Trial: trial, Round: round, Informed: informed})
		}
		opt.OnTrialDone = func(trial int, t flood.ProtocolTrial) {
			sink(Event{Type: "trial", Trial: trial, Rounds: t.Result.Rounds, Completed: t.Result.Completed})
		}
	}
	hooks, finishHooks := e.phaseHooks(sink)
	opt.Hook = hooks
	camp, err := flood.RunProtocolContext(ctx, factory, opt)
	finishHooks()
	if err != nil {
		return nil, err
	}

	res := &Result{
		Hash:             hash,
		Spec:             publicSpec(c),
		Model:            desc,
		Protocol:         c.Protocol.Name,
		CompletedTrials:  len(camp.Rounds),
		IncompleteTrials: camp.Incomplete,
		Rounds:           camp.Summary,
	}
	for _, t := range camp.Trials {
		res.Trials = append(res.Trials, TrialResult{
			Source:       t.Result.Source,
			Rounds:       t.Result.Rounds,
			Completed:    t.Result.Completed,
			RoundsToHalf: t.RoundsToHalf,
			Messages:     t.Result.Messages,
		})
	}
	if len(camp.Trials) > 0 {
		res.Trajectory = camp.Trials[0].Result.Trajectory
	}
	return res, nil
}

// runExperiment executes a paper-reproduction experiment as a job. The
// experiment harness is not round-cancellable; cancellation is honored
// before it starts and observed after it returns.
func (e *Executor) runExperiment(ctx context.Context, c spec.Spec, hash string, sink func(Event)) (*Result, error) {
	exp, ok := experiments.ByID(c.Experiment)
	if !ok {
		return nil, fmt.Errorf("serve: unknown experiment %q", c.Experiment)
	}
	params, err := experiments.ParamsFromSpec(c)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sink != nil {
		sink(Event{Type: "experiment", Message: fmt.Sprintf("%s: %s (scale=%s)", exp.ID, exp.Title, params.Scale)})
	}
	rep := exp.Run(params)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{Hash: hash, Spec: publicSpec(c), Report: rep}, nil
}
