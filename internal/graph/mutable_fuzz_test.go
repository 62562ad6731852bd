package graph

import (
	"testing"

	"meg/internal/bitset"
	"meg/internal/rng"
)

// FuzzMutableDelta runs generated delta chains through one Mutable and
// checks it after every step against a fresh Builder build of the same
// edge set. n runs from 1 to 96 and the start is a G(n, d) sample
// from the seed. Each op byte b names a node u = b/5 mod n (so nodes
// 0–51) and, by b mod 5, one of:
//
//	0: a random churn round (births 2%, deaths 20%, from the seed)
//	1: fill u — every absent pair at u is born, forcing a relayout once
//	   the row outgrows its slack
//	2: empty u — every present pair at u dies
//	3: Reset to a fresh build (which drops the retired set)
//	4: retire u — u joins the retired set; the first such op calls
//	   Retire
//
// so a chain empties and refills rows, relayouts repeatedly — each
// relayout recycling the arrays the previous one replaced — restarts
// from Reset, and goes on after nodes retire. Every row of an unretired
// node and M() must match the fresh build, and the live view pointer must survive every delta.
// The seed corpus lives in testdata/fuzz/FuzzMutableDelta and runs
// under plain go test.
func FuzzMutableDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw, density, workers uint8, seed uint64, ops []byte) {
		n := 1 + int(nRaw)%96
		w := 1 + int(workers)%4
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := rng.New(seed)
		present := make([]bool, n*n) // present[u*n+v] for u < v
		keys := func() []uint64 {
			var out []uint64
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if present[u*n+v] {
						out = append(out, PackEdge(u, v))
					}
				}
			}
			return out
		}
		p := float64(density) / 255
		for i := range present {
			present[i] = i/n < i%n && r.Bernoulli(p*p)
		}
		m := NewMutable(buildFromKeys(n, keys()))
		view := m.Graph()
		done := bitset.New(n)
		for step, op := range ops {
			u := int(op/5) % n
			switch op % 5 {
			case 3:
				m.Reset(buildFromKeys(n, keys()))
				done = bitset.New(n)
				continue
			case 4:
				done.Add(u)
				if m.done == nil {
					m.Retire(done)
				}
				continue
			}
			// The next edge set, then its delta in ascending key order.
			var d Delta
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					was, is := present[a*n+b], present[a*n+b]
					switch op % 4 {
					case 0:
						is = r.Bernoulli(0.02) || (was && !r.Bernoulli(0.2))
					case 1:
						is = was || a == u || b == u
					case 2:
						is = was && a != u && b != u
					}
					if is && !was {
						d.Births = append(d.Births, PackEdge(a, b))
					} else if was && !is {
						d.Deaths = append(d.Deaths, PackEdge(a, b))
					}
					present[a*n+b] = is
				}
			}
			m.ApplyDelta(d, w)
			if m.Graph() != view {
				t.Fatalf("step %d: ApplyDelta replaced the live view", step)
			}
			want := buildFromKeys(n, keys())
			liveRowsEqual(t, "mutable", m.Graph(), want, done)
		}
	})
}
