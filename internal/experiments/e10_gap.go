package experiments

import (
	"math"

	"meg/internal/core"
	"meg/internal/edgemeg"
	"meg/internal/flood"
	"meg/internal/rng"
	"meg/internal/stats"
	"meg/internal/table"
)

// E10Gap reproduces the stationary/worst-case separation stated in the
// paper's introduction: for birth rate p = O(1/n^(1+ε)) and death rate
// q = O(np/log n), flooding from the stationary distribution takes
// Θ(log n/log(np̂)) = O(log n) rounds, while flooding from the
// worst-case initial graph (the empty graph, per the worst-case
// analysis of reference [9]) must first wait ≈ 1/(np) = Θ(n^ε) rounds
// for the source to acquire any edge at all. The measured gap therefore
// grows polynomially in n — an exponential separation in the sense that
// n^ε is exponential in log n while the stationary time is polynomial
// in log n.
func E10Gap(p Params) *Report {
	ns := pick(p.Scale, []int{512, 1024}, []int{512, 1024, 2048, 4096}, []int{512, 1024, 2048, 4096, 8192})
	trials := pick(p.Scale, 6, 12, 16)
	const epsExp = 0.5 // the ε in p = 1/n^{1+ε}

	tbl := table.New("E10 — stationary vs worst-case (empty start) flooding, p = n^(−3/2), q = np/(3·log n)",
		"n", "np̂", "stationary mean", "empty-start mean", "gap", "n^ε prediction")
	rep := &Report{
		ID:    "E10",
		Title: "Exponential gap between stationary and worst-case flooding (Section 1)",
		Notes: []string{
			"q is scaled so p̂ ≈ 3·log n/n stays in the connected regime (Theorem 4.3 applies to",
			"the stationary runs). The empty start must wait for the source's first edge birth",
			"(expected ≈ 1/(np) = n^ε·... rounds), so the gap grows like a power of n while the",
			"stationary time stays nearly flat.",
		},
	}

	var gaps, nsF []float64
	stationaryFlat := true
	var stationaryMeans []float64
	for _, n := range ns {
		nf := float64(n)
		pBirth := math.Pow(nf, -(1 + epsExp))
		qDeath := nf * pBirth / (3 * math.Log(nf))
		cfgStat := edgemeg.Config{N: n, P: pBirth, Q: qDeath, Init: edgemeg.InitStationary}
		cfgEmpty := edgemeg.Config{N: n, P: pBirth, Q: qDeath, Init: edgemeg.InitEmpty}
		pHat := cfgStat.PHat()

		campStat := flood.Run(func() core.Dynamics { return edgemeg.MustNew(cfgStat) }, flood.Options{
			Trials: trials, Seed: rng.SeedFor(p.Seed, 2000+n), Workers: p.Workers, Parallelism: p.Parallelism,
			MaxRounds: core.DefaultRoundCap(n) * 4,
		})
		campEmpty := flood.Run(func() core.Dynamics { return edgemeg.MustNew(cfgEmpty) }, flood.Options{
			Trials: trials, Seed: rng.SeedFor(p.Seed, 3000+n), Workers: p.Workers, Parallelism: p.Parallelism,
			MaxRounds: core.DefaultRoundCap(n) * 4,
		})
		gap := campEmpty.MeanRounds() / campStat.MeanRounds()
		gaps = append(gaps, gap)
		nsF = append(nsF, nf)
		stationaryMeans = append(stationaryMeans, campStat.MeanRounds())
		tbl.AddRow(n, nf*pHat, campStat.MeanRounds(), campEmpty.MeanRounds(), gap, math.Pow(nf, epsExp))
	}
	if stats.RatioSpread(stationaryMeans) > 2.5 {
		stationaryFlat = false
	}

	rep.Tables = append(rep.Tables, tbl)
	gapFit := stats.LogLogFit(nsF, gaps)
	rep.Checks = append(rep.Checks,
		boolCheck("gap grows polynomially in n (log-log slope ≥ 0.25)", gapFit.Slope >= 0.25,
			"gap ∝ n^%.2f (prediction exponent ≈ %.2f)", gapFit.Slope, epsExp),
		boolCheck("gap exceeds 4× at the largest n", gaps[len(gaps)-1] >= 4,
			"gap %.1f× at n=%d", gaps[len(gaps)-1], ns[len(ns)-1]),
		boolCheck("stationary flooding stays nearly flat in n", stationaryFlat,
			"stationary means spread %.2f", stats.RatioSpread(stationaryMeans)),
	)
	rep.Metrics = map[string]float64{"gap_exponent": gapFit.Slope, "gap_at_max_n": gaps[len(gaps)-1]}
	return rep
}
