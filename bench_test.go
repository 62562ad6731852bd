// Benchmarks that regenerate every experiment of the paper
// reproduction (one benchmark per table/figure, E1–E13 in DESIGN.md) at
// Quick scale, reporting each experiment's headline metrics, plus
// micro-benchmarks of the core simulation loops. cmd/megbench prints
// the full tables; these benches track wall-clock cost and the key
// measured quantities per run.
package meg_test

import (
	"math"
	"testing"

	"meg"
	"meg/internal/core"
	"meg/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		rep := e.Run(experiments.Params{Scale: experiments.Quick, Seed: uint64(i) + 1})
		if !rep.Passed() {
			for _, c := range rep.Checks {
				if !c.Pass {
					b.Logf("%s check failed: %s — %s", id, c.Name, c.Detail)
				}
			}
		}
		if i == b.N-1 {
			for name, v := range rep.Metrics {
				b.ReportMetric(v, name)
			}
		}
	}
}

func BenchmarkE1_GeneralBound(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2_CellOccupancy(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3_GeometricExpansion(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4_GeometricScaling(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5_GeometricLowerBound(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6_Stationarity(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7_EdgeExpansion(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8_EdgeScaling(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9_EdgeGrowth(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10_StationaryVsWorstCase(b *testing.B) {
	benchExperiment(b, "E10")
}
func BenchmarkE11_MobilityModels(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12_DensityScaling(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13_SubThreshold(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkE14_FloodVsDiameter(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15_Parsimonious(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16_Protocols(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17_Connectivity(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkE18_MeanField(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19_Uniformity(b *testing.B)      { benchExperiment(b, "E19") }
func BenchmarkE20_Faults(b *testing.B)          { benchExperiment(b, "E20") }

// benchFlood measures one full stationary flooding run (sample π, then
// flood to completion) per op. push pins the sparse push kernel over
// CSR snapshots (the pre-direction-optimizing behavior) for comparison;
// hiding the model's optional interfaces also takes a geometric model
// off its cell-grid spread.
func benchFlood(b *testing.B, model meg.Dynamics, push bool) {
	if push {
		defer core.SetKernelForTest("push")()
		model = struct{ meg.Dynamics }{model}
	}
	n := model.N()
	r := meg.NewRNG(1)
	rounds := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Reset(r.Split())
		res := meg.Flood(model, 0, meg.DefaultRoundCap(n))
		rounds += float64(res.Rounds)
	}
	b.ReportMetric(rounds/float64(b.N), "rounds/op")
}

func geometric4k() meg.Dynamics {
	n := 4096
	radius := 2 * math.Sqrt(math.Log(float64(n)))
	return meg.NewGeometric(meg.GeometricConfig{N: n, R: radius, MoveRadius: radius / 2})
}

func edge4k() meg.Dynamics {
	n := 4096
	pHat := 4 * math.Log(float64(n)) / float64(n)
	return meg.NewEdgeMarkovian(meg.EdgeConfig{N: n, P: 0.5 * pHat / (1 - pHat), Q: 0.5})
}

// BenchmarkFloodGeometric floods the stationary geometric-MEG at the
// paper's canonical parameters through the default engine.
func BenchmarkFloodGeometric(b *testing.B) { benchFlood(b, geometric4k(), false) }

// BenchmarkFloodGeometricPush is BenchmarkFloodGeometric on the pinned
// push kernel.
func BenchmarkFloodGeometricPush(b *testing.B) { benchFlood(b, geometric4k(), true) }

// BenchmarkFloodEdge floods the stationary edge-MEG at p̂ = 4·log n/n
// through the default engine.
func BenchmarkFloodEdge(b *testing.B) { benchFlood(b, edge4k(), false) }

// BenchmarkFloodEdgePush is BenchmarkFloodEdge on the pinned push
// kernel.
func BenchmarkFloodEdgePush(b *testing.B) { benchFlood(b, edge4k(), true) }

// BenchmarkFloodEdgeMulti64 amortizes one stationary edge-MEG snapshot
// sequence across 64 sources with the bit-parallel batched engine; the
// per-source cost ("flood/op" = time/64) is the number to compare
// against BenchmarkFloodEdge.
func BenchmarkFloodEdgeMulti64(b *testing.B) {
	n := 4096
	pHat := 4 * math.Log(float64(n)) / float64(n)
	cfg := meg.EdgeConfig{N: n, P: 0.5 * pHat / (1 - pHat), Q: 0.5}
	r := meg.NewRNG(1)
	model := meg.NewEdgeMarkovian(cfg)
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = i * (n / 64)
	}
	rounds := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Reset(r.Split())
		for _, res := range meg.FloodMulti(model, sources, meg.DefaultRoundCap(n)) {
			rounds += float64(res.Rounds)
		}
	}
	b.ReportMetric(rounds/float64(b.N)/64, "rounds/flood")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/flood")
}
