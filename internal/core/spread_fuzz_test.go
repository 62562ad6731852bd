package core

import (
	"math"
	"testing"

	"meg/internal/geommeg"
	"meg/internal/mobility"
	"meg/internal/rng"
)

// FuzzGeometricSpread checks the snapshot-free flooding path on
// generated geometric-MEGs: the model floods through its cell grid
// (Spreader), and the result must be byte-equal to the pinned push
// kernel over CSR snapshots of the same realization, reached by hiding
// Spreader. The inputs cover node counts from 2 to 2048, radii from
// sub-threshold to brute-force grids, frozen to long-range walks, the
// torus, lazy walks, every init mode, the seed and the source. The seed
// corpus lives in testdata/fuzz/FuzzGeometricSpread and runs under
// plain go test.
func FuzzGeometricSpread(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, rMul, move uint8, torus bool, jump, init uint8, seed uint64, source uint16) {
		n := 2 + int(nRaw)%2047
		radius := (0.25 + float64(rMul%64)/16) * math.Sqrt(math.Log(float64(n)))
		if radius <= 1 {
			radius = 1.01 // the unit lattice resolution must stay below R
		}
		cfg := geommeg.Config{
			N:          n,
			R:          radius,
			MoveRadius: float64(move%33) / 16 * radius,
			Torus:      torus,
			Jump:       float64(jump%16+1) / 16,
			Init:       geommeg.InitMode(init % 3),
		}
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		src := int(source) % n
		maxRounds := min(DefaultRoundCap(n), 256)
		m := geommeg.MustNew(cfg)
		m.Reset(rng.New(seed))
		spread := FloodOpt(m, src, maxRounds, FloodOptions{})
		m = geommeg.MustNew(cfg)
		m.Reset(rng.New(seed))
		sameResult(t, "spread vs push", spread, floodPinned("push", struct{ Dynamics }{m}, src, maxRounds, FloodOptions{}))
	})
}

// FuzzMobilitySpread is FuzzGeometricSpread for the mobility processes:
// a generated mobility.Dynamics floods through its cell grid
// (Spreader), and the result must be byte-equal to the pinned push
// kernel over CSR snapshots of the same realization. The inputs
// cover all seven processes (the torus ones among them), node counts
// from 2 to 1024, radii from sub-threshold to a grid coarse enough to
// be a single cell, slow to fast motion, the worker count, the seed and
// the source. The restricted disk with a wide roam clamps many nodes
// onto the square's far edge, where the grid must clamp its cell too.
// The seed corpus lives in testdata/fuzz/FuzzMobilitySpread.
func FuzzMobilitySpread(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, process, rMul, speed, par uint8, seed uint64, source uint16) {
		n := 2 + int(nRaw)%1023
		side := math.Sqrt(float64(n))
		radius := side * float64(rMul%64+1) / 96 // 96 cells per axis down to 1
		s := side * float64(speed%32+1) / 64
		newMobility := func() mobility.Mobility {
			switch process % 7 {
			case 0:
				return mobility.NewWaypointTorus(n, side, s/2, s)
			case 1:
				return mobility.NewBilliard(n, side, s, 0.1)
			case 2:
				return mobility.NewWalkersTorus(n, side, s)
			case 3:
				return mobility.NewRestrictedDisk(n, side, s)
			case 4:
				return mobility.NewLevyTorus(n, side, 1.5, s/8, s)
			case 5:
				return mobility.NewGaussMarkov(n, side, 0.75, s/4)
			default:
				return mobility.NewWaypointSquare(n, side, s/2, s)
			}
		}
		src := int(source) % n
		maxRounds := min(DefaultRoundCap(n), 256)
		d := mobility.NewDynamics(newMobility(), radius)
		d.Reset(rng.New(seed))
		spread := FloodOpt(d, src, maxRounds, FloodOptions{Parallelism: 1 + int(par%3)})
		d = mobility.NewDynamics(newMobility(), radius)
		d.Reset(rng.New(seed))
		sameResult(t, "spread vs push", spread, floodPinned("push", struct{ Dynamics }{d}, src, maxRounds, FloodOptions{}))
	})
}
