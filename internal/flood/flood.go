// Package flood runs Monte Carlo flooding campaigns over any
// core.Dynamics: repeated independent trials (each with its own
// dynamics instance and RNG stream, executed in parallel), source
// maximization, and the aggregate statistics the experiments report.
package flood

import (
	"context"
	"math"

	"meg/internal/core"
	"meg/internal/rng"
	"meg/internal/spec"
	"meg/internal/stats"
	"meg/internal/sweep"
)

// OptionsFromSpec is the spec-driven constructor: it maps a canonical
// simulation spec onto campaign options (trials, sources, round cap,
// effective seed, source batching). Progress callbacks are left nil for
// the caller to attach.
func OptionsFromSpec(s spec.Spec) (Options, error) {
	c, err := s.Canonical()
	if err != nil {
		return Options{}, err
	}
	seed, err := c.EffectiveSeed()
	if err != nil {
		return Options{}, err
	}
	return Options{
		Trials:          c.Trials,
		SourcesPerTrial: c.Sources,
		MaxRounds:       c.MaxRounds,
		Seed:            seed,
		Workers:         c.Workers,
		Parallelism:     c.Parallelism,
		BatchSources:    c.Engine.BatchSources,
	}, nil
}

// Factory builds a fresh, independent dynamics instance for one trial.
// Trials run concurrently, so instances must not share mutable state.
type Factory func() core.Dynamics

// Options configures a flooding campaign.
type Options struct {
	// Trials is the number of independent repetitions (default 1).
	Trials int
	// SourcesPerTrial is how many sources each trial maximizes over
	// (default 1; the first source of every trial is node 0, further
	// sources are uniform). Flooding time is defined as a max over
	// sources; stationary models are node-symmetric, so a small sample
	// converges quickly.
	SourcesPerTrial int
	// MaxRounds caps each run (default core.DefaultRoundCap(n)).
	MaxRounds int
	// Seed derives every trial's RNG stream (deterministic campaign).
	Seed uint64
	// Workers bounds parallelism (default: all CPUs).
	Workers int
	// Parallelism is the intra-trial worker count of the sharded
	// flooding engine and the models' parallel snapshot builds
	// (core.FloodOptions.Parallelism). Results are byte-identical for
	// every value; 0 or 1 runs the engine as one shard. Trial-level
	// Workers and intra-trial Parallelism multiply, so campaigns
	// typically raise one or the other: many short trials want Workers,
	// few huge trials want Parallelism.
	Parallelism int
	// BatchSources runs each trial's sources over ONE shared
	// realization via core.FloodMulti (bit-parallel, up to 64 sources
	// per word) instead of resetting the dynamics per source. Roughly
	// SourcesPerTrial× cheaper; the per-trial max is then over runs
	// coupled through the shared snapshots, which remains a valid
	// flooding-time estimator for stationary models. With
	// SourcesPerTrial == 1 the batched and unbatched paths are
	// bit-identical.
	BatchSources bool
	// OnRound, if non-nil, is called after every flooding round with
	// the trial index, round number, and informed count — the feed for
	// live progress streams. Trials run in parallel, so OnRound is
	// called concurrently from worker goroutines and must be safe for
	// that; in the unbatched multi-source path the round number restarts
	// once per source within a trial.
	OnRound func(trial, round, informed int)
	// OnTrialDone, if non-nil, is called as each trial finishes (in
	// completion order, concurrently — same caveats as OnRound).
	OnTrialDone func(trial int, t Trial)
	// Hook, if non-nil, is called once at the start of every trial (on
	// the trial's worker goroutine) and may return a core.PhaseHook to
	// observe that trial's engine rounds — phase timings and per-round
	// telemetry. Trials run concurrently, so the factory must hand out
	// a distinct hook per trial (or nil to skip one). Hooks observe
	// only: campaign results are byte-identical with and without them.
	Hook func(trial int) core.PhaseHook
}

func (o Options) withDefaults(n int) Options {
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.SourcesPerTrial <= 0 {
		o.SourcesPerTrial = 1
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = core.DefaultRoundCap(n)
	}
	return o
}

// Trial is the outcome of one repetition (already maximized over the
// trial's sources).
type Trial struct {
	Result core.FloodResult
	// RoundsToHalf is the first round with ≥ n/2 informed (-1 if never).
	RoundsToHalf int
}

// Campaign is the aggregate outcome of Run.
type Campaign struct {
	Trials []Trial
	// Rounds holds the flooding time of every completed trial.
	Rounds []float64
	// Incomplete counts trials that hit the round cap.
	Incomplete int
	// Summary summarizes Rounds (zero value if no trial completed).
	Summary stats.Summary
}

// MaxRounds returns the worst completed flooding time, or 0 if nothing
// completed.
func (c Campaign) MaxRounds() float64 {
	if len(c.Rounds) == 0 {
		return 0
	}
	return c.Summary.Max
}

// Run executes a flooding campaign: opt.Trials independent repetitions,
// each building a fresh dynamics from factory, resetting it into its
// initial distribution, and flooding from each of the trial's sources
// (taking the worst). Trials execute in parallel and deterministically
// with respect to opt.Seed.
func Run(factory Factory, opt Options) Campaign {
	c, _ := RunContext(context.Background(), factory, opt)
	return c
}

// RunContext is Run with cooperative cancellation: when ctx is
// cancelled, queued trials are never started, running trials abort at
// their next flooding round, and RunContext returns the zero Campaign
// together with ctx.Err(). A completed campaign is identical to Run's
// for the same options.
func RunContext(ctx context.Context, factory Factory, opt Options) (Campaign, error) {
	// The model built to read n serves as trial 0's dynamics; every
	// trial Resets its dynamics before use, so reuse is invisible.
	probe := factory()
	n := probe.N()
	opt = opt.withDefaults(n)

	stop := func() bool { return ctx.Err() != nil }
	trials, err := sweep.RepeatCtx(ctx, opt.Trials, opt.Seed, opt.Workers, func(rep int, r *rng.RNG) Trial {
		d := probe
		if rep != 0 {
			d = factory()
		}
		sources := make([]int, opt.SourcesPerTrial)
		// First source fixed for comparability; the rest sampled.
		for i := 1; i < len(sources); i++ {
			sources[i] = r.Intn(n)
		}
		var progress func(round, informed int)
		if opt.OnRound != nil {
			progress = func(round, informed int) { opt.OnRound(rep, round, informed) }
		}
		var hook core.PhaseHook
		if opt.Hook != nil {
			hook = opt.Hook(rep)
		}
		var res core.FloodResult
		if opt.BatchSources {
			d.Reset(r.Split())
			res = core.WorstResult(core.FloodMultiOpt(d, sources, opt.MaxRounds,
				core.MultiOptions{Parallelism: opt.Parallelism, Stop: stop, Progress: progress, Hook: hook}))
		} else {
			res = core.FloodingTimeOpt(d, sources, opt.MaxRounds, r,
				core.FloodOptions{Parallelism: opt.Parallelism, Stop: stop, Progress: progress, Hook: hook})
		}
		t := Trial{Result: res, RoundsToHalf: res.RoundsToHalf(n)}
		if opt.OnTrialDone != nil && ctx.Err() == nil {
			opt.OnTrialDone(rep, t)
		}
		return t
	})
	if err != nil {
		return Campaign{}, err
	}

	c := Campaign{Trials: trials}
	for _, t := range trials {
		if t.Result.Completed {
			c.Rounds = append(c.Rounds, float64(t.Result.Rounds))
		} else {
			c.Incomplete++
		}
	}
	if len(c.Rounds) > 0 {
		c.Summary = stats.Summarize(c.Rounds)
	}
	return c, nil
}

// MeanRounds is a convenience accessor: the mean completed flooding
// time, or NaN if no trial completed.
func (c Campaign) MeanRounds() float64 {
	if len(c.Rounds) == 0 {
		return math.NaN()
	}
	return c.Summary.Mean
}
