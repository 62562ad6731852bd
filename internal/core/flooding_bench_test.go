package core

import (
	"fmt"
	"testing"

	"meg/internal/edgemeg"
	"meg/internal/rng"
)

// benchKernelSequence isolates the flooding kernel from snapshot
// generation: the G(n, p) sequence is pregenerated, so ns/op is pure
// kernel time. avgDeg controls the regime — sparse floods spend their
// rounds with small frontiers, dense ones are dominated by the late
// rounds where most of the graph is uninformed receivers.
func benchKernelSequence(b *testing.B, n int, avgDeg float64, kernel string) {
	defer SetKernelForTest(kernel)()
	seq := randomSequence(n, 64, avgDeg/float64(n-1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.Reset(nil)
		res := Flood(seq, i%n, DefaultRoundCap(n))
		if !res.Completed {
			b.Fatal("benchmark flood did not complete")
		}
	}
}

func BenchmarkKernel(b *testing.B) {
	for _, cfg := range []struct {
		n      int
		avgDeg float64
	}{{4096, 12}, {4096, 64}, {4096, 256}} {
		for _, k := range kernels {
			b.Run(fmt.Sprintf("n=%d/deg=%.0f/%s", cfg.n, cfg.avgDeg, k), func(b *testing.B) {
				benchKernelSequence(b, cfg.n, cfg.avgDeg, k)
			})
		}
	}
}

// BenchmarkMultiVsSolo pits the bit-parallel batched engine against 64
// sequential solo floods over the same stationary edge-MEG model,
// including the dynamics cost both must pay.
func BenchmarkMultiVsSolo(b *testing.B) {
	n := 2048
	cfg := edgemeg.Config{N: n, P: 0.02, Q: 0.5}
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = i * (n / 64)
	}
	b.Run("multi64", func(b *testing.B) {
		m := edgemeg.MustNew(cfg)
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			m.Reset(r.Split())
			FloodMulti(m, sources, DefaultRoundCap(n))
		}
	})
	b.Run("solo64", func(b *testing.B) {
		m := edgemeg.MustNew(cfg)
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			for _, s := range sources {
				m.Reset(r.Split())
				Flood(m, s, DefaultRoundCap(n))
			}
		}
	})
}
