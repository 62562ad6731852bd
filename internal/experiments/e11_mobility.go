package experiments

import (
	"math"

	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/geommeg"
	"meg/internal/mobility"
	"meg/internal/rng"
	"meg/internal/stats"
	"meg/internal/table"
)

// E11MobilityModels reproduces the paper's "further mobility models"
// claim (Section 1): the expansion argument only uses the (almost)
// uniformity of the stationary position distribution, so every mobility
// model with that property — random waypoint on a torus, random
// direction with reflection (billiard), the walkers model on a toroidal
// grid, the restricted i.i.d. disk model of [24] — has the same
// Θ(√n/R) flooding-time shape as the lattice random walk, with only
// the constant factor differing.
func E11MobilityModels(p Params) *Report {
	n := pick(p.Scale, 2048, 4096, 16384)
	trials := pick(p.Scale, 6, 12, 20)

	side := math.Sqrt(float64(n))
	radius := 2 * math.Sqrt(math.Log(float64(n)))
	moveR := radius / 2

	type entry struct {
		name    string
		factory flood.Factory
	}
	entries := []entry{
		{"lattice random walk (paper §3)", func() core.Dynamics {
			return geommeg.MustNew(geommeg.Config{N: n, R: radius, MoveRadius: moveR})
		}},
		{"walkers on toroidal grid", func() core.Dynamics {
			return geommeg.MustNew(geommeg.Config{N: n, R: radius, MoveRadius: moveR, Torus: true})
		}},
		{"random waypoint (torus)", func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewWaypointTorus(n, side, moveR/2, moveR), radius)
		}},
		{"random direction + reflection (billiard)", func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewBilliard(n, side, moveR, 0.1), radius)
		}},
		{"walkers (continuous torus)", func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewWalkersTorus(n, side, moveR), radius)
		}},
		{"restricted i.i.d. disk ([24])", func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewRestrictedDisk(n, side, 2*radius), radius)
		}},
		{"Lévy walkers (torus)", func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewLevyTorus(n, side, 2, moveR/4, moveR), radius)
		}},
		{"Gauss-Markov (reflect)", func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewGaussMarkov(n, side, 0.8, moveR/2), radius)
		}},
	}

	tbl := table.New("E11 — flooding across mobility models (n="+itoa64(n)+", R=2√log n, speeds ≈ R/2)",
		"model", "rounds mean", "rounds max", "√n/R", "ratio", "incomplete")
	rep := &Report{
		ID:    "E11",
		Title: "Further mobility models share the Θ(√n/R) flooding shape",
		Notes: []string{
			"All models start from their stationary position distribution (perfect simulation).",
			"'ratio' = mean rounds/(√n/R): the theory predicts all models land in one constant band.",
		},
	}

	sqrtNoverR := side / radius
	var ratios []float64
	incompleteTotal := 0
	for i, e := range entries {
		camp := flood.Run(e.factory, flood.Options{
			Trials:      trials,
			Seed:        rng.SeedFor(p.Seed, 4000+i),
			Workers:     p.Workers,
			Parallelism: p.Parallelism,
		})
		ratio := camp.MeanRounds() / sqrtNoverR
		ratios = append(ratios, ratio)
		incompleteTotal += camp.Incomplete
		tbl.AddRow(e.name, camp.MeanRounds(), camp.MaxRounds(), sqrtNoverR, ratio, camp.Incomplete)
	}

	rep.Tables = append(rep.Tables, tbl)
	spread := stats.RatioSpread(ratios)
	rep.Checks = append(rep.Checks,
		boolCheck("every model completes every trial", incompleteTotal == 0,
			"%d incomplete runs", incompleteTotal),
		boolCheck("all models inside one constant band (spread ≤ 3)", spread <= 3,
			"rounds/(√n/R) spread %.2f across %d models", spread, len(entries)),
	)
	rep.Metrics = map[string]float64{"model_spread": spread, "incomplete": float64(incompleteTotal)}
	return rep
}
