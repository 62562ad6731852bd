package experiments

import (
	"math"

	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/geom"
	"meg/internal/mobility"
	"meg/internal/rng"
	"meg/internal/stats"
	"meg/internal/sweep"
	"meg/internal/table"
)

// E19Uniformity probes the assumption behind the paper's "further
// mobility models" claim: the expansion argument needs a uniform (or
// almost uniform) stationary position distribution. We compare three
// models at identical n, R and speed —
//
//   - random waypoint on the TORUS (uniform stationary: theorems apply),
//   - Gauss–Markov with reflection (≈ uniform: theorems apply),
//   - random waypoint on the SQUARE (center-biased stationary — the
//     textbook example violating the assumption; the paper's Section 5
//     lists such non-homogeneous models as open questions) —
//
// measuring both the stationary occupancy deviation and the flooding
// time. The uniform models must sit in one Θ(√n/R) band; the square RWP
// shows markedly higher non-uniformity — yet its flooding time stays in
// the same band: the center surplus compensates the corner deficit at
// connected-regime radii. The experiment thereby documents that the
// paper's uniformity hypothesis is what the PROOF needs, while the
// Θ(√n/R) behavior itself is robust to moderate non-uniformity (the
// paper's Section 5 lists strongly non-homogeneous models as open).
func E19Uniformity(p Params) *Report {
	n := pick(p.Scale, 2048, 4096, 16384)
	trials := pick(p.Scale, 8, 12, 20)

	side := math.Sqrt(float64(n))
	radius := 2 * math.Sqrt(math.Log(float64(n)))
	speed := radius / 2

	rep := &Report{
		ID:    "E19",
		Title: "Uniformity of the stationary distribution: where the theorems' assumption binds",
		Notes: []string{
			"occupancy dev = max |cell share − 1/64| over an 8×8 grid at the stationary start.",
			"RWP-square is the standard counterexample to uniformity (center-biased).",
		},
	}

	type entry struct {
		name    string
		uniform bool
		factory func() core.Dynamics
	}
	entries := []entry{
		{"waypoint (torus, uniform)", true, func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewWaypointTorus(n, side, speed/2, speed), radius)
		}},
		{"Gauss-Markov (reflect, ≈uniform)", true, func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewGaussMarkov(n, side, 0.8, speed/2), radius)
		}},
		{"Lévy walkers (torus, uniform)", true, func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewLevyTorus(n, side, 2, speed/4, speed), radius)
		}},
		{"waypoint (square, center-biased)", false, func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewWaypointSquare(n, side, speed/2, speed), radius)
		}},
	}

	tbl := table.New("E19 — occupancy deviation and flooding by stationary-distribution shape (n="+itoa64(n)+")",
		"model", "occupancy dev", "rounds mean", "rounds max", "ratio to √n/R")
	x := side / radius
	var uniformRatios []float64
	var uniformDevs []float64
	var biasedDev, biasedRatio float64
	for i, e := range entries {
		// Occupancy deviation at the stationary start.
		devs := sweep.Repeat(trials, rng.SeedFor(p.Seed, 1900+i), p.Workers, func(rep int, r *rng.RNG) float64 {
			d := e.factory().(*mobility.Dynamics)
			d.Reset(r)
			grid := geom.NewCellGrid(side, side/8)
			counts := make([]int, grid.NumCells())
			mob := d.Mobility()
			for u := 0; u < n; u++ {
				counts[grid.CellIndexOf(mob.Position(u))]++
			}
			worst := 0.0
			for _, c := range counts {
				if dev := math.Abs(float64(c)/float64(n) - 1.0/float64(grid.NumCells())); dev > worst {
					worst = dev
				}
			}
			return worst
		})
		dev := stats.Mean(devs)

		camp := flood.Run(e.factory, flood.Options{
			Trials: trials, Seed: rng.SeedFor(p.Seed, 1950+i), Workers: p.Workers, Parallelism: p.Parallelism,
		})
		ratio := camp.MeanRounds() / x
		if e.uniform {
			uniformRatios = append(uniformRatios, ratio)
			uniformDevs = append(uniformDevs, dev)
		} else {
			biasedDev = dev
			biasedRatio = ratio
		}
		tbl.AddRow(e.name, dev, camp.MeanRounds(), camp.MaxRounds(), ratio)
	}

	rep.Tables = append(rep.Tables, tbl)
	rep.Checks = append(rep.Checks,
		boolCheck("uniform models share one Θ(√n/R) band (spread ≤ 2)",
			stats.RatioSpread(uniformRatios) <= 2,
			"ratio spread %.2f across uniform models", stats.RatioSpread(uniformRatios)),
		boolCheck("RWP-square is markedly less uniform (dev ≥ 2× uniform models)",
			biasedDev >= 2*maxOf(uniformDevs),
			"biased dev %.4f vs uniform max %.4f", biasedDev, maxOf(uniformDevs)),
		boolCheck("Θ(√n/R) behavior robust to the center bias (ratio within the band ±50%)",
			biasedRatio >= 0.5*minOf(uniformRatios) && biasedRatio <= 1.5*maxOf(uniformRatios),
			"biased ratio %.2f vs uniform band [%.2f, %.2f]",
			biasedRatio, minOf(uniformRatios), maxOf(uniformRatios)),
	)
	rep.Metrics = map[string]float64{
		"biased_dev": biasedDev, "biased_ratio": biasedRatio,
		"uniform_ratio_max": maxOf(uniformRatios),
	}
	return rep
}
