package experiments

import (
	"math"

	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/geommeg"
	"meg/internal/rng"
	"meg/internal/table"
)

// E13SubThreshold is the ablation the paper's conclusions point to
// (Section 5, developed in the authors' follow-up [11]): below the
// connectivity threshold (R ≪ √log n) the static snapshot is
// disconnected and static flooding (r = 0) stalls forever, but node
// mobility ferries the message between components, so flooding
// completes once r > 0 and accelerates as r grows — the opposite of the
// connected regime of E5, where mobility was negligible. This is the
// "high mobility can make up for low transmission power" phenomenon.
func E13SubThreshold(p Params) *Report {
	n := pick(p.Scale, 1024, 4096, 8192)
	trials := pick(p.Scale, 6, 10, 16)

	// R well below the connectivity scale: the average degree πR² ≈ 3.1
	// leaves the snapshot shattered into many components.
	radius := 1.0
	moveFactors := []float64{0, 1, 2, 4, 8, 16}
	cap := pick(p.Scale, 20, 30, 40) * int(math.Sqrt(float64(n)))

	tbl := table.New("E13 — sub-threshold regime (n="+itoa64(n)+", R=1 ≪ √log n): mobility rescues flooding",
		"r/R", "completed", "rounds mean (completed)", "rounds max", "speedup vs r=R")
	rep := &Report{
		ID:    "E13",
		Title: "Sub-threshold ablation: mobility speeds up flooding when R is below the connectivity threshold",
		Notes: []string{
			"r = 0 is the static disconnected baseline: flooding cannot complete (capped runs).",
			"For r > 0 completion is restored and grows faster with r, in contrast with E5.",
		},
	}

	var meanAtR1 float64
	staticCompleted := 0
	mobileIncomplete := 0
	monotone := true
	prevMean := math.Inf(1)
	for i, f := range moveFactors {
		cfg := geommeg.Config{N: n, R: radius, MoveRadius: f * radius, Eps: 0.5}
		camp := flood.Run(func() core.Dynamics { return geommeg.MustNew(cfg) }, flood.Options{
			Trials:      trials,
			Seed:        rng.SeedFor(p.Seed, 4700+i),
			Workers:     p.Workers,
			Parallelism: p.Parallelism,
			MaxRounds:   cap,
		})
		completed := trials - camp.Incomplete
		if f == 0 {
			staticCompleted = completed
		} else if f >= 1 {
			mobileIncomplete += camp.Incomplete
		}
		if f == 1 {
			meanAtR1 = camp.MeanRounds()
		}
		speedup := math.NaN()
		if f >= 1 && meanAtR1 > 0 && !math.IsNaN(camp.MeanRounds()) {
			speedup = meanAtR1 / camp.MeanRounds()
			if camp.MeanRounds() > prevMean*1.35 {
				monotone = false
			}
			prevMean = camp.MeanRounds()
		}
		tbl.AddRow(f, completed, camp.MeanRounds(), camp.MaxRounds(), speedup)
	}

	rep.Tables = append(rep.Tables, tbl)
	rep.Checks = append(rep.Checks,
		boolCheck("static sub-threshold flooding never completes", staticCompleted == 0,
			"%d/%d static runs completed (snapshot disconnected)", staticCompleted, trials),
		boolCheck("mobility (r ≥ R) restores completion in every run", mobileIncomplete == 0,
			"%d incomplete mobile runs", mobileIncomplete),
		boolCheck("flooding speeds up with r (≈monotone, 35%% slack)", monotone,
			"mean rounds non-increasing in r for r ≥ R"),
	)
	rep.Metrics = map[string]float64{
		"static_completed":  float64(staticCompleted),
		"mobile_incomplete": float64(mobileIncomplete),
	}
	return rep
}
