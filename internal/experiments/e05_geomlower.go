package experiments

import (
	"math"

	"meg/internal/bounds"
	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/geommeg"
	"meg/internal/rng"
	"meg/internal/stats"
	"meg/internal/table"
)

// E5GeometricLower reproduces Theorem 3.5: the flooding time of a
// stationary geometric-MEG is at least √n/(2(R+2r)) w.h.p. (the
// explicit constant from the proof). It sweeps the move radius r at
// fixed n and R, verifying the bound trial by trial, and additionally
// confirms the Corollary 3.6 picture: for r = O(R) mobility has almost
// no effect on flooding time (the dynamic network behaves like the
// static stationary graph), while very large r starts to help.
func E5GeometricLower(p Params) *Report {
	n := pick(p.Scale, 2048, 8192, 16384)
	trials := pick(p.Scale, 6, 12, 20)

	radius := 2 * math.Sqrt(math.Log(float64(n)))
	moveFactors := []float64{0, 0.25, 0.5, 1, 2, 4, 8}

	tbl := table.New("E5 — move-radius sweep at n="+itoa64(n)+", R=2√log n",
		"r/R", "r", "rounds mean", "rounds min", "lower √n/(2(R+2r))", "min/lower", "vs r=0")
	rep := &Report{
		ID:    "E5",
		Title: "Theorem 3.5: flooding ≥ √n/(2(R+2r)); mobility negligible for r = O(R)",
		Notes: []string{
			"'min/lower' must stay ≥ 1 (per-trial lower bound, explicit constant).",
			"'vs r=0' = mean rounds / mean rounds at r=0. Corollary 3.6 (r = O(R)) predicts the",
			"same Θ(√n/R): a bounded factor band for r ≤ R, improving substantially only for r ≫ R.",
		},
	}

	side := math.Sqrt(float64(n))
	violations := 0
	var base float64
	var smallRMeans []float64
	var bigRGain float64
	for i, f := range moveFactors {
		moveR := f * radius
		cfg := geommeg.Config{N: n, R: radius, MoveRadius: moveR}
		camp := flood.Run(func() core.Dynamics { return geommeg.MustNew(cfg) }, flood.Options{
			Trials:      trials,
			Seed:        rng.SeedFor(p.Seed, 500+i),
			Workers:     p.Workers,
			Parallelism: p.Parallelism,
		})
		lower := bounds.GeometricLower(side, radius, moveR)
		minRounds := camp.Summary.Min
		for _, t := range camp.Trials {
			if t.Result.Completed && float64(t.Result.Rounds) < lower {
				violations++
			}
		}
		if i == 0 {
			base = camp.MeanRounds()
		}
		rel := camp.MeanRounds() / base
		if f <= 1 {
			smallRMeans = append(smallRMeans, camp.MeanRounds())
		}
		if f == moveFactors[len(moveFactors)-1] {
			bigRGain = rel
		}
		tbl.AddRow(f, moveR, camp.MeanRounds(), minRounds, lower, minRounds/lower, rel)
	}

	rep.Tables = append(rep.Tables, tbl)
	rep.Checks = append(rep.Checks,
		boolCheck("no trial beats the Theorem 3.5 lower bound", violations == 0,
			"%d violations across all r", violations),
		boolCheck("same Θ(√n/R) band for all r ≤ R (spread ≤ 2)", stats.RatioSpread(smallRMeans) <= 2,
			"mean-rounds spread %.3f for 0 ≤ r ≤ R", stats.RatioSpread(smallRMeans)),
		boolCheck("large r (8R) does not slow flooding", bigRGain <= 1.25,
			"mean ratio at r=8R vs r=0: %.3f", bigRGain),
	)
	rep.Metrics = map[string]float64{
		"violations":     float64(violations),
		"spread_small_r": stats.RatioSpread(smallRMeans),
		"gain_8R":        bigRGain,
	}
	return rep
}
