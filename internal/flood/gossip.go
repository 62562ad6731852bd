package flood

import (
	"context"
	"fmt"

	"meg/internal/core"
	"meg/internal/rng"
	"meg/internal/spec"
	"meg/internal/stats"
	"meg/internal/sweep"
)

// ProtocolOptions configures a campaign of a non-flooding protocol
// (push gossip, push-pull, probabilistic or lossy flooding): the same
// trial/source estimator as Options, plus the protocol selection. Every
// campaign runs on the sharded gossip engine (core.Gossip).
type ProtocolOptions struct {
	// Protocol is the protocol name (push|push-pull|probabilistic|lossy).
	Protocol string
	// Beta is probabilistic flooding's forwarding probability.
	Beta float64
	// Loss is lossy flooding's per-message loss probability.
	Loss float64
	// Trials is the number of independent repetitions (default 1).
	Trials int
	// SourcesPerTrial is how many sources each trial maximizes over
	// (default 1; first source is node 0, the rest uniform).
	SourcesPerTrial int
	// MaxRounds caps each run (default core.DefaultRoundCap(n)).
	MaxRounds int
	// Seed derives every trial's RNG stream.
	Seed uint64
	// Workers bounds trial-level parallelism (default: all CPUs).
	Workers int
	// Parallelism is the intra-trial worker count of the sharded gossip
	// engine and the models' snapshot builds. Results are byte-identical
	// for every value.
	Parallelism int
	// OnRound, if non-nil, receives per-round progress. Called
	// concurrently from trial workers.
	OnRound func(trial, round, informed int)
	// OnTrialDone, if non-nil, is called as each trial finishes
	// (completion order, concurrently).
	OnTrialDone func(trial int, t ProtocolTrial)
	// Hook, if non-nil, is called once at the start of every trial and
	// may return a core.PhaseHook observing that trial's engine rounds.
	// Same contract as Options.Hook: one distinct hook per trial,
	// observation only, byte-identical results.
	Hook func(trial int) core.PhaseHook
}

// ProtocolOptionsFromSpec maps a canonical non-flooding spec onto
// campaign options. It rejects flooding specs — those run on the
// flooding engine via OptionsFromSpec.
func ProtocolOptionsFromSpec(s spec.Spec) (ProtocolOptions, error) {
	c, err := s.Canonical()
	if err != nil {
		return ProtocolOptions{}, err
	}
	if c.Protocol.Name == "flooding" {
		return ProtocolOptions{}, fmt.Errorf("flood: spec runs flooding; use OptionsFromSpec")
	}
	seed, err := c.EffectiveSeed()
	if err != nil {
		return ProtocolOptions{}, err
	}
	return ProtocolOptions{
		Protocol:        c.Protocol.Name,
		Beta:            c.Protocol.Beta,
		Loss:            c.Protocol.Loss,
		Trials:          c.Trials,
		SourcesPerTrial: c.Sources,
		MaxRounds:       c.MaxRounds,
		Seed:            seed,
		Workers:         c.Workers,
		Parallelism:     c.Parallelism,
	}, nil
}

func (o ProtocolOptions) withDefaults(n int) ProtocolOptions {
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

// ProtocolTrial is one repetition's outcome (maximized over sources).
type ProtocolTrial struct {
	Result core.GossipResult
	// RoundsToHalf is the first round with ≥ n/2 informed (-1 if never).
	RoundsToHalf int
}

// ProtocolCampaign is the aggregate outcome of RunProtocol.
type ProtocolCampaign struct {
	Trials []ProtocolTrial
	// Rounds holds the spreading time of every completed trial.
	Rounds []float64
	// Incomplete counts trials that hit the round cap (or died out).
	Incomplete int
	// Summary summarizes Rounds (zero value if no trial completed).
	Summary stats.Summary
}

// RunProtocol executes a protocol campaign; see RunProtocolContext.
func RunProtocol(factory Factory, opt ProtocolOptions) ProtocolCampaign {
	c, _ := RunProtocolContext(context.Background(), factory, opt)
	return c
}

// RunProtocolContext runs opt.Trials independent repetitions of the
// selected protocol on the sharded gossip engine — fresh dynamics per
// trial, worst result over the trial's sources — in parallel and
// deterministically with respect to opt.Seed. Cancellation mirrors
// RunContext: runs abort at the next round.
func RunProtocolContext(ctx context.Context, factory Factory, opt ProtocolOptions) (ProtocolCampaign, error) {
	gp, err := core.ParseGossip(opt.Protocol)
	if err != nil {
		return ProtocolCampaign{}, err
	}
	// The model built to read n serves as trial 0's dynamics; every
	// source Resets the dynamics before use, so reuse is invisible.
	probe := factory()
	n := probe.N()
	opt = opt.withDefaults(n)

	stop := func() bool { return ctx.Err() != nil }
	trials, err := sweep.RepeatCtx(ctx, opt.Trials, opt.Seed, opt.Workers, func(rep int, r *rng.RNG) ProtocolTrial {
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
		var worst core.GossipResult
		for i, src := range sources {
			if ctx.Err() != nil && i > 0 {
				break
			}
			d.Reset(r.Split())
			res := core.Gossip(d, gp, src, opt.MaxRounds, r, core.GossipOptions{
				Beta: opt.Beta, Loss: opt.Loss,
				Parallelism: opt.Parallelism,
				Stop:        stop, Progress: progress,
				Hook: hook,
			})
			if i == 0 || worseResult(res, worst) {
				worst = res
			}
		}
		t := ProtocolTrial{Result: worst, RoundsToHalf: worst.RoundsToHalf(n)}
		if opt.OnTrialDone != nil && ctx.Err() == nil {
			opt.OnTrialDone(rep, t)
		}
		return t
	})
	if err != nil {
		return ProtocolCampaign{}, err
	}

	c := ProtocolCampaign{Trials: trials}
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

// worseResult mirrors core's flooding-time ordering: incomplete beats
// complete, then more rounds beats fewer.
func worseResult(a, b core.GossipResult) bool {
	if a.Completed != b.Completed {
		return !a.Completed
	}
	return a.Rounds > b.Rounds
}
