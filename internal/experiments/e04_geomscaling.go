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

// E4GeometricScaling reproduces Theorem 3.4 and Corollary 3.6: in the
// stationary geometric-MEG with r = O(R) and c√log n ≤ R ≤ √n/loglog n,
// the flooding time is Θ(√n/R). Two sweeps:
//
//   - over n with R = 2√log n (the connectivity scale): the ratio
//     rounds/(√n/R) must stay within a narrow band while √n/R grows;
//   - over R at the largest n: the same ratio must stay in the band as
//     R alone varies, and a log-log fit of rounds against √n/R must
//     have slope ≈ 1.
func E4GeometricScaling(p Params) *Report {
	ns := pick(p.Scale, []int{1024, 4096}, []int{1024, 2048, 4096, 8192, 16384}, []int{1024, 2048, 4096, 8192, 16384, 32768, 65536})
	radiusMults := pick(p.Scale, []float64{2, 4}, []float64{2, 3, 4, 6}, []float64{2, 3, 4, 6, 8})
	trials := pick(p.Scale, 6, 12, 20)
	sourcesPerTrial := pick(p.Scale, 1, 2, 2)

	rep := &Report{
		ID:    "E4",
		Title: "Theorem 3.4 + Corollary 3.6: flooding time Θ(√n/R)",
		Notes: []string{
			"r = R/2 throughout (r = O(R), Corollary 3.6's regime). 'shape' = √n/R + loglog R",
			"(Theorem 3.4 upper-bound shape); 'ratio' = mean rounds / (√n/R). Θ(√n/R) predicts",
			"a bounded ratio band across the whole sweep.",
		},
	}

	type row struct {
		n      int
		radius float64
		mean   float64
		max    float64
		shape  float64
		ratio  float64
	}
	var rows []row
	run := func(n int, radius float64) row {
		cfg := geommeg.Config{N: n, R: radius, MoveRadius: radius / 2}
		camp := flood.Run(func() core.Dynamics { return geommeg.MustNew(cfg) }, flood.Options{
			Trials:          trials,
			SourcesPerTrial: sourcesPerTrial,
			Seed:            rng.SeedFor(p.Seed, n*131+int(radius*7)),
			Workers:         p.Workers,
			Parallelism:     p.Parallelism,
			MaxRounds:       core.DefaultRoundCap(n),
			BatchSources:    true,
		})
		sqrtNoverR := math.Sqrt(float64(n)) / radius
		return row{
			n: n, radius: radius,
			mean:  camp.MeanRounds(),
			max:   camp.MaxRounds(),
			shape: bounds.GeometricUpperShape(n, radius),
			ratio: camp.MeanRounds() / sqrtNoverR,
		}
	}

	nTbl := table.New("E4a — sweep over n (R = 2√log n, r = R/2)",
		"n", "R", "√n/R", "rounds mean", "rounds max", "shape √n/R+loglogR", "ratio")
	var nRatios []float64
	for _, n := range ns {
		radius := 2 * math.Sqrt(math.Log(float64(n)))
		rw := run(n, radius)
		rows = append(rows, rw)
		nRatios = append(nRatios, rw.ratio)
		nTbl.AddRow(n, radius, math.Sqrt(float64(n))/radius, rw.mean, rw.max, rw.shape, rw.ratio)
	}

	nBig := ns[len(ns)-1]
	rTbl := table.New("E4b — sweep over R at n = "+itoa64(nBig)+" (R = mult·√log n)",
		"mult", "R", "√n/R", "rounds mean", "rounds max", "shape", "ratio")
	var rRatios, xs, ys []float64
	for _, mult := range radiusMults {
		radius := mult * math.Sqrt(math.Log(float64(nBig)))
		rw := run(nBig, radius)
		rows = append(rows, rw)
		rRatios = append(rRatios, rw.ratio)
		x := math.Sqrt(float64(nBig)) / radius
		xs = append(xs, x)
		ys = append(ys, rw.mean)
		rTbl.AddRow(mult, radius, x, rw.mean, rw.max, rw.shape, rw.ratio)
	}

	rep.Tables = append(rep.Tables, nTbl, rTbl)

	nSpread := stats.RatioSpread(nRatios)
	rSpread := stats.RatioSpread(rRatios)
	rep.Checks = append(rep.Checks,
		boolCheck("Θ-band over n: ratio spread ≤ 2.5", nSpread <= 2.5,
			"rounds/(√n/R) spread %.2f over a %d× range of n", nSpread, ns[len(ns)-1]/ns[0]),
		boolCheck("Θ-band over R: ratio spread ≤ 2.5", rSpread <= 2.5,
			"rounds/(√n/R) spread %.2f over R multipliers %v", rSpread, radiusMults),
	)
	if len(xs) >= 3 {
		fit := stats.LogLogFit(xs, ys)
		rep.Checks = append(rep.Checks, boolCheck("rounds ∝ (√n/R)^e with e ≈ 1",
			fit.Slope > 0.7 && fit.Slope < 1.3,
			"log-log slope %.3f (R² of fit %.3f)", fit.Slope, fit.R2))
	}
	// Upper-bound sanity: measured flooding below a small multiple of
	// the Theorem 3.4 shape everywhere.
	worst := 0.0
	for _, rw := range rows {
		if q := rw.max / rw.shape; q > worst {
			worst = q
		}
	}
	rep.Checks = append(rep.Checks, boolCheck("measured ≤ 3×(√n/R + loglog R) everywhere", worst <= 3,
		"worst max/shape %.2f", worst))
	rep.Metrics = map[string]float64{"spread_over_n": nSpread, "spread_over_R": rSpread, "worst_shape_ratio": worst}
	return rep
}

func itoa64(n int) string {
	return table.Cell(n)
}
