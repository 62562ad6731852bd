package experiments

import (
	"math"

	"meg/internal/core"
	"meg/internal/edgemeg"
	"meg/internal/geommeg"
	"meg/internal/rng"
	"meg/internal/stats"
	"meg/internal/sweep"
	"meg/internal/table"
)

// E16Protocols realizes the paper's framing of flooding as "the natural
// lower bound for broadcast protocols in dynamic networks … often used
// in order to evaluate the relative efficiency of alternative
// protocols" (Section 1): it runs the standard alternatives —
// probabilistic flooding [29], push rumor spreading [30], push–pull —
// against flooding on both stationary substrates and reports latency
// and message complexity. Flooding must be the round-for-round fastest;
// gossip variants must trade a logarithmic latency factor for order-of-
// magnitude message savings.
//
// Every row runs on the bit-parallel sharded gossip engine; the flooding
// row is lossy flooding at f = 0, which is flooding with message
// accounting (Σ deg over informed nodes per round).
func E16Protocols(p Params) *Report {
	n := pick(p.Scale, 1024, 4096, 16384)
	trials := pick(p.Scale, 8, 12, 20)

	radius := 2 * math.Sqrt(math.Log(float64(n)))
	pHat := 4 * math.Log(float64(n)) / float64(n)
	geomCfg := geommeg.Config{N: n, R: radius, MoveRadius: radius / 2}
	edgeCfg := edgeConfigFor(n, pHat, 0.5)

	// The first row is the flooding baseline the others are measured
	// against.
	protos := []struct {
		label string
		proto core.GossipProtocol
		beta  float64
	}{
		{label: "flooding", proto: core.GossipLossyFlood},
		{label: "prob-flood(β=0.80)", proto: core.GossipProbFlood, beta: 0.8},
		{label: "push-gossip", proto: core.GossipPush},
		{label: "push-pull", proto: core.GossipPushPull},
	}

	rep := &Report{
		ID:    "E16",
		Title: "Flooding as the baseline for broadcast protocols (Section 1 framing)",
		Notes: []string{
			"Latency in rounds, messages in point-to-point transmissions (mean over trials).",
			"Flooding is the latency floor of the family; gossip trades rounds for messages.",
			"Gossip rows run on the bit-parallel kernel engine (result-identical to the per-node reference).",
		},
	}

	type row struct {
		rounds, messages float64
		success          int
	}
	run := func(factory func() core.Dynamics, proto core.GossipProtocol, beta float64, salt int) row {
		res := sweep.Repeat(trials, rng.SeedFor(p.Seed, salt), p.Workers, func(rep int, r *rng.RNG) core.GossipResult {
			d := factory()
			d.Reset(r.Split())
			return core.Gossip(d, proto, r.Intn(n), core.DefaultRoundCap(n), r, core.GossipOptions{
				Beta: beta, Parallelism: p.Parallelism,
			})
		})
		var out row
		var rAcc, mAcc stats.Accumulator
		for _, o := range res {
			if o.Completed {
				out.success++
				rAcc.Add(float64(o.Rounds))
			}
			mAcc.Add(float64(o.Messages))
		}
		out.rounds = rAcc.Mean()
		out.messages = mAcc.Mean()
		return out
	}

	substrates := []struct {
		name    string
		factory func() core.Dynamics
	}{
		{"geometric-MEG", func() core.Dynamics { return geommeg.MustNew(geomCfg) }},
		{"edge-MEG", func() core.Dynamics { return edgemeg.MustNew(edgeCfg) }},
	}

	floodFastest := true
	gossipSaves := true
	allComplete := true
	for si, sub := range substrates {
		tbl := table.New("E16 — broadcast protocols on the stationary "+sub.name+" (n="+itoa64(n)+")",
			"protocol", "success", "rounds mean", "messages mean", "msg vs flooding")
		var floodRow row
		for pi, proto := range protos {
			rw := run(sub.factory, proto.proto, proto.beta, 1600+100*si+pi)
			if pi == 0 {
				floodRow = rw
			}
			if rw.success < trials && pi != 1 {
				// probabilistic flooding may legitimately die out; all
				// others must always complete in the connected regime.
				allComplete = false
			}
			// Distributionally no protocol in the family beats flooding;
			// the means come from independent trials with random
			// sources, so allow one round of sampling noise.
			if rw.success > 0 && rw.rounds < floodRow.rounds-1 {
				floodFastest = false
			}
			if proto.proto == core.GossipPush && rw.messages >= floodRow.messages {
				gossipSaves = false
			}
			tbl.AddRow(proto.label, rw.success, rw.rounds, rw.messages, rw.messages/floodRow.messages)
		}
		rep.Tables = append(rep.Tables, tbl)
	}

	rep.Checks = append(rep.Checks,
		boolCheck("flooding is the latency floor of the family", floodFastest,
			"no protocol completed in fewer rounds than flooding on either substrate"),
		boolCheck("deterministic protocols always complete", allComplete,
			"flooding, push, push-pull completed every trial"),
		boolCheck("push gossip saves messages vs flooding", gossipSaves,
			"gossip message mean below flooding's on both substrates"),
	)
	rep.Metrics = map[string]float64{
		"flood_fastest": b2f(floodFastest), "gossip_saves": b2f(gossipSaves),
	}
	return rep
}
