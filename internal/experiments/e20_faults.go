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

// E20Faults measures flooding under unreliable transmission — the
// faulty-network motivation of the paper's introduction pushed from the
// topology level (edge-MEG) to the message level: every transmission is
// lost independently with probability f. Because flooding retransmits
// every round, loss cannot stall it on a connected-regime stationary
// MEG; the prediction is graceful degradation — completion in every
// trial with the mean time growing by roughly the per-hop retry factor
// 1/(1−f) — which the sweep verifies up to f = 0.9.
func E20Faults(p Params) *Report {
	n := pick(p.Scale, 1024, 4096, 16384)
	trials := pick(p.Scale, 8, 12, 20)
	losses := []float64{0, 0.25, 0.5, 0.75, 0.9}

	radius := 2 * math.Sqrt(math.Log(float64(n)))
	geomCfg := geommeg.Config{N: n, R: radius, MoveRadius: radius / 2}
	pHat := 4 * math.Log(float64(n)) / float64(n)
	edgeCfg := edgeConfigFor(n, pHat, 0.5)

	rep := &Report{
		ID:    "E20",
		Title: "Flooding under message loss: graceful degradation on both substrates",
		Notes: []string{
			"Per-message loss probability f; flooding retransmits every round, so the",
			"expected slowdown is bounded by the per-hop retry factor 1/(1−f).",
		},
	}

	substrates := []struct {
		name    string
		factory func() core.Dynamics
	}{
		{"geometric-MEG", func() core.Dynamics { return geommeg.MustNew(geomCfg) }},
		{"edge-MEG", func() core.Dynamics { return edgemeg.MustNew(edgeCfg) }},
	}

	allComplete := true
	degradeOK := true
	for si, sub := range substrates {
		tbl := table.New("E20 — flooding vs loss rate on the stationary "+sub.name+" (n="+itoa64(n)+")",
			"loss f", "success", "rounds mean", "slowdown", "retry bound 1/(1−f)")
		var base float64
		for li, f := range losses {
			loss := f
			res := sweep.Repeat(trials, rng.SeedFor(p.Seed, 2000+100*si+li), p.Workers, func(rep int, r *rng.RNG) core.GossipResult {
				d := sub.factory()
				d.Reset(r.Split())
				return core.Gossip(d, core.GossipLossyFlood, r.Intn(n), core.DefaultRoundCap(n), r, core.GossipOptions{
					Loss: loss, Parallelism: p.Parallelism,
				})
			})
			success := 0
			var acc stats.Accumulator
			for _, o := range res {
				if o.Completed {
					success++
					acc.Add(float64(o.Rounds))
				}
			}
			if success < trials {
				allComplete = false
			}
			if li == 0 {
				base = acc.Mean()
			}
			slowdown := acc.Mean() / base
			retry := 1 / (1 - f)
			// Allow generous slack: geometry gives flooding many
			// parallel paths, so the observed slowdown is usually far
			// below the serial retry bound.
			if slowdown > retry*1.5+0.3 {
				degradeOK = false
			}
			tbl.AddRow(f, success, acc.Mean(), slowdown, retry)
		}
		rep.Tables = append(rep.Tables, tbl)
	}

	rep.Checks = append(rep.Checks,
		boolCheck("flooding completes at every loss rate up to 0.9", allComplete,
			"retransmission defeats message loss in the connected regime"),
		boolCheck("slowdown bounded by ≈ the retry factor 1/(1−f)", degradeOK,
			"graceful degradation on both substrates"),
	)
	rep.Metrics = map[string]float64{"all_complete": b2f(allComplete)}
	return rep
}
