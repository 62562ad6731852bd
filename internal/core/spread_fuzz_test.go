package core

import (
	"math"
	"testing"

	"meg/internal/geommeg"
	"meg/internal/rng"
)

// FuzzGeometricSpread checks the snapshot-free flooding path on
// generated geometric-MEGs: under KernelAuto the model floods through
// its cell grid (Spreader), and the result must be byte-equal to the
// pinned push kernel over CSR snapshots of the same realization. The
// inputs cover node counts from 2 to 2048, radii from sub-threshold to
// brute-force grids, frozen to long-range walks, the torus, lazy walks,
// every init mode, the seed and the source. The seed corpus lives in
// testdata/fuzz/FuzzGeometricSpread and runs under plain go test.
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
		run := func(opt FloodOptions) FloodResult {
			m := geommeg.MustNew(cfg)
			m.Reset(rng.New(seed))
			return FloodOpt(m, src, maxRounds, opt)
		}
		sameResult(t, "spread vs push", run(FloodOptions{}), run(FloodOptions{Kernel: KernelPush}))
	})
}
