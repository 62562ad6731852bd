package experiments

import (
	"math"

	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/geommeg"
	"meg/internal/rng"
	"meg/internal/stats"
	"meg/internal/table"
)

// E12Density reproduces Observation 3.3: the unit-density convention is
// only cosmetic — at density δ(n) (square of side √(n/δ)) the whole
// theory holds with the threshold rescaled to R ≥ c√(log n/δ). We fix
// n, sweep δ across a 16× range with R = 2√(log n/δ), and verify that
// the flooding time collapses onto the single curve side/R
// (equivalently √n/(√δ·R)), as the rescaled Theorem 3.4 predicts.
func E12Density(p Params) *Report {
	n := pick(p.Scale, 2048, 8192, 16384)
	trials := pick(p.Scale, 6, 12, 20)
	densities := []float64{0.25, 0.5, 1, 2, 4}

	tbl := table.New("E12 — density sweep at n="+itoa64(n)+" (side=√(n/δ), R=2√(log n/δ))",
		"δ", "side", "R", "side/R", "rounds mean", "rounds max", "ratio")
	rep := &Report{
		ID:    "E12",
		Title: "Observation 3.3: rescaled threshold R ≥ c√(log n/δ) at general density",
		Notes: []string{
			"side/R = √(δn)/... is held constant by the rescaling (it depends only on n), so",
			"Observation 3.3 predicts a δ-independent flooding time; 'ratio' = rounds/(side/R).",
		},
	}

	var ratios []float64
	for i, delta := range densities {
		radius := 2 * math.Sqrt(math.Log(float64(n))/delta)
		cfg := geommeg.Config{N: n, R: radius, MoveRadius: radius / 2, Density: delta}
		side := cfg.Side()
		camp := flood.Run(func() core.Dynamics { return geommeg.MustNew(cfg) }, flood.Options{
			Trials:      trials,
			Seed:        rng.SeedFor(p.Seed, 4400+i),
			Workers:     p.Workers,
			Parallelism: p.Parallelism,
		})
		ratio := camp.MeanRounds() / (side / radius)
		ratios = append(ratios, ratio)
		tbl.AddRow(delta, side, radius, side/radius, camp.MeanRounds(), camp.MaxRounds(), ratio)
	}

	rep.Tables = append(rep.Tables, tbl)
	spread := stats.RatioSpread(ratios)
	rep.Checks = append(rep.Checks,
		boolCheck("flooding collapses onto side/R across densities (spread ≤ 1.6)", spread <= 1.6,
			"rounds/(side/R) spread %.3f over δ ∈ %v", spread, densities),
	)
	rep.Metrics = map[string]float64{"density_spread": spread}
	return rep
}
