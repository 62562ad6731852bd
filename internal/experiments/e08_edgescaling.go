package experiments

import (
	"math"

	"meg/internal/bounds"
	"meg/internal/core"
	"meg/internal/edgemeg"
	"meg/internal/flood"
	"meg/internal/rng"
	"meg/internal/stats"
	"meg/internal/table"
)

// edgeConfigFor derives (p, q) with the desired stationary marginal p̂
// and a death rate q that keeps per-edge chains mixing quickly (q = ½
// unless overridden): p = q·p̂/(1−p̂).
func edgeConfigFor(n int, pHat, q float64) edgemeg.Config {
	return edgemeg.Config{N: n, P: q * pHat / (1 - pHat), Q: q}
}

// E8EdgeScaling reproduces Theorem 4.3 and Corollary 4.5: flooding time
// of a stationary edge-MEG with c log n/n ≤ p̂ ≤ n^(1/loglog n)/n is
// Θ(log n / log(np̂)). Sweeps over n at three density laws for p̂
// (c·log n/n, log²n/n, 1/√n·n^... ≈ n^{-1/2}) plus a sweep over p̂ at
// fixed n; the ratio rounds/(log n/log(np̂)) must stay in a narrow band
// everywhere.
func E8EdgeScaling(p Params) *Report {
	ns := pick(p.Scale, []int{1024, 4096}, []int{1024, 2048, 4096, 8192, 16384}, []int{1024, 2048, 4096, 8192, 16384, 32768, 65536})
	trials := pick(p.Scale, 8, 16, 24)
	sourcesPerTrial := pick(p.Scale, 1, 2, 2)

	rep := &Report{
		ID:    "E8",
		Title: "Theorem 4.3 + Corollary 4.5: flooding time Θ(log n/log(np̂))",
		Notes: []string{
			"q = 1/2 throughout; p = q·p̂/(1−p̂) gives the target stationary marginal p̂.",
			"'shape' = log n/log(np̂) + loglog(np̂) (Theorem 4.3); 'ratio' = mean rounds /",
			"(log n/log(np̂)). A bounded ratio across all rows is the Θ claim.",
		},
	}

	type law struct {
		name string
		pHat func(n int) float64
	}
	laws := []law{
		{"p̂=4·log n/n", func(n int) float64 { return 4 * math.Log(float64(n)) / float64(n) }},
		{"p̂=log²n/n", func(n int) float64 { l := math.Log(float64(n)); return l * l / float64(n) }},
		{"p̂=n^(−1/2)", func(n int) float64 { return 1 / math.Sqrt(float64(n)) }},
	}

	tbl := table.New("E8a — sweep over n per density law",
		"law", "n", "np̂", "rounds mean", "rounds max", "log n/log np̂", "shape", "ratio")
	var ratios []float64
	worstShape := 0.0
	for _, lw := range laws {
		for _, n := range ns {
			pHat := lw.pHat(n)
			if pHat*float64(n)*float64(n)/2 > 8e6 {
				// Keep the densest configurations within a laptop-scale
				// memory budget; the Θ-band is already pinned by the
				// remaining rows.
				continue
			}
			cfg := edgeConfigFor(n, pHat, 0.5)
			camp := flood.Run(func() core.Dynamics { return edgemeg.MustNew(cfg) }, flood.Options{
				Trials:          trials,
				SourcesPerTrial: sourcesPerTrial,
				Seed:            rng.SeedFor(p.Seed, n*17+len(lw.name)),
				Workers:         p.Workers,
				Parallelism:     p.Parallelism,
				BatchSources:    true,
			})
			lower := math.Log(float64(n)) / math.Log(float64(n)*pHat)
			shape := bounds.EdgeUpperShape(n, pHat)
			ratio := camp.MeanRounds() / lower
			ratios = append(ratios, ratio)
			if q := camp.MaxRounds() / shape; q > worstShape {
				worstShape = q
			}
			tbl.AddRow(lw.name, n, float64(n)*pHat, camp.MeanRounds(), camp.MaxRounds(), lower, shape, ratio)
		}
	}
	rep.Tables = append(rep.Tables, tbl)

	// Sweep p̂ at the largest n.
	nBig := ns[len(ns)-1]
	pTbl := table.New("E8b — sweep over p̂ at n = "+itoa64(nBig),
		"np̂", "rounds mean", "rounds max", "log n/log np̂", "ratio")
	for _, mult := range []float64{2, 4, 16, 64, 256} {
		pHat := mult * math.Log(float64(nBig)) / float64(nBig)
		if pHat >= 0.5 || pHat*float64(nBig)*float64(nBig)/2 > 8e6 {
			continue
		}
		cfg := edgeConfigFor(nBig, pHat, 0.5)
		camp := flood.Run(func() core.Dynamics { return edgemeg.MustNew(cfg) }, flood.Options{
			Trials:          trials,
			SourcesPerTrial: sourcesPerTrial,
			Seed:            rng.SeedFor(p.Seed, 9000+int(mult)),
			Workers:         p.Workers,
			Parallelism:     p.Parallelism,
			BatchSources:    true,
		})
		lower := math.Log(float64(nBig)) / math.Log(float64(nBig)*pHat)
		ratio := camp.MeanRounds() / lower
		ratios = append(ratios, ratio)
		pTbl.AddRow(float64(nBig)*pHat, camp.MeanRounds(), camp.MaxRounds(), lower, ratio)
	}
	rep.Tables = append(rep.Tables, pTbl)

	spread := stats.RatioSpread(ratios)
	rep.Checks = append(rep.Checks,
		boolCheck("Θ-band: ratio spread ≤ 3.5 across all laws, n and p̂", spread <= 3.5,
			"rounds/(log n/log np̂) spread %.2f over %d configurations", spread, len(ratios)),
		boolCheck("measured ≤ 4×Theorem-4.3 shape everywhere", worstShape <= 4,
			"worst max/shape %.2f", worstShape),
		boolCheck("flooding is O(log log n)-close to optimal in the dense row",
			ratios[len(ratios)-1] <= 4,
			"densest p̂ ratio %.2f (upper and lower bounds pinch, Corollary 4.5)", ratios[len(ratios)-1]),
	)
	rep.Metrics = map[string]float64{"ratio_spread": spread, "worst_shape_ratio": worstShape}
	return rep
}
