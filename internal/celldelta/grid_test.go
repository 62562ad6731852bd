package celldelta

import (
	"math"
	"slices"
	"testing"

	"meg/internal/bitset"
	"meg/internal/graph"
	"meg/internal/rng"
)

type pt struct{ x, y float64 }

// world is a minimal model over the grid: points in [0, side]² with a
// Euclidean or toroidal radius test.
type world struct {
	side, radius float64
	torus        bool
	pos          []pt
	grid         *Grid[pt]
	record       bool       // keep emitted (serial sweeps only)
	emitted      [][2]int32 // every edge Sweep emitted, in order
}

func newWorld(r *rng.RNG, n int, side, radius float64, torus bool) *world {
	w := &world{side: side, radius: radius, torus: torus, pos: make([]pt, n)}
	w.grid = NewGrid(w.pos, side, radius, torus, Scans[pt]{Locate: w.locate, Sweep: w.sweep, Spread: w.spread})
	w.place(r)
	return w
}

// place draws fresh positions; every fifth node sits exactly on the
// far edge of the square, where Cell must clamp.
func (w *world) place(r *rng.RNG) {
	for u := range w.pos {
		w.pos[u] = pt{r.Float64() * w.side, r.Float64() * w.side}
		if u%5 == 0 {
			w.pos[u].x = w.side
		}
	}
	w.grid.Moved()
}

func (w *world) adjacent(p, q pt) bool {
	dx, dy := math.Abs(p.x-q.x), math.Abs(p.y-q.y)
	if w.torus {
		dx, dy = min(dx, w.side-dx), min(dy, w.side-dy)
	}
	return dx*dx+dy*dy <= w.radius*w.radius
}

func (w *world) locate(cells []int32) {
	for u, p := range w.pos {
		cells[u] = w.grid.Cell(p.x, p.y)
	}
}

func (w *world) sweep(lo, hi int, rows, lens []int32) []int32 {
	for u := lo; u < hi; u++ {
		k := 0
		for _, v := range w.grid.After(u) {
			if w.adjacent(w.pos[u], w.pos[v]) {
				rows = append(rows, v)
				k++
				if w.record {
					w.emitted = append(w.emitted, [2]int32{int32(u), v})
				}
			}
		}
		lens[u-lo] = int32(k)
	}
	return rows
}

func (w *world) spread(pos []pt, ids []int32, lo, hi int32, informed []Span, newly []int32) []int32 {
	for i := lo; i < hi; i++ {
	scan:
		for _, sp := range informed {
			for _, q := range pos[sp.Lo:sp.Hi] {
				if w.adjacent(pos[i], q) {
					newly = append(newly, ids[i])
					break scan
				}
			}
		}
	}
	return newly
}

// brutePairs is the all-pairs double loop's edge list.
func (w *world) brutePairs() [][2]int32 {
	var out [][2]int32
	for u := range w.pos {
		for v := u + 1; v < len(w.pos); v++ {
			if w.adjacent(w.pos[u], w.pos[v]) {
				out = append(out, [2]int32{int32(u), int32(v)})
			}
		}
	}
	return out
}

func graphPairs(g *graph.Graph) [][2]int32 {
	var out [][2]int32
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				out = append(out, [2]int32{int32(u), v})
			}
		}
	}
	return out
}

// TestGridGraphMatchesBruteForce checks Graph against the all-pairs
// definition on coarse (one-cell) and fine grids, bounded and wrapping,
// serial and parallel. On a one-cell grid a serial sweep also emits the
// edges in the double loop's order.
func TestGridGraphMatchesBruteForce(t *testing.T) {
	r := rng.New(5)
	for _, radius := range []float64{9, 2.3, 1.1} { // 1, 4 and 9 cells per axis
		for _, torus := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				w := newWorld(r, 150, 10, radius, torus)
				w.grid.SetWorkers(workers)
				w.record = workers == 1
				for step := 0; step < 3; step++ {
					w.emitted = w.emitted[:0]
					want := w.brutePairs()
					if got := graphPairs(w.grid.Graph()); !slices.Equal(got, want) {
						t.Fatalf("R=%g torus=%v P%d step %d: %d edges, want %d", radius, torus, workers, step, len(got), len(want))
					}
					if w.grid.mo.k == 1 && w.record && !slices.Equal(w.emitted, want) {
						t.Fatalf("R=%g torus=%v: one-cell sweep emitted out of double-loop order", radius, torus)
					}
					w.place(r)
				}
			}
		}
	}
}

// TestGridSpreadMatchesBruteForce checks Spread(I) = N(I) \ I for
// informed sets from empty to full, on coarse and fine grids.
func TestGridSpreadMatchesBruteForce(t *testing.T) {
	r := rng.New(6)
	for _, radius := range []float64{9, 2.3, 1.1} {
		for _, torus := range []bool{false, true} {
			w := newWorld(r, 150, 10, radius, torus)
			for _, frac := range []float64{0, 0.01, 0.5, 0.99, 1} {
				informed := bitset.New(len(w.pos))
				for u := range w.pos {
					if r.Float64() < frac {
						informed.Add(u)
					}
				}
				want := bitset.New(len(w.pos))
				for _, e := range w.brutePairs() {
					u, v := int(e[0]), int(e[1])
					if informed.Contains(u) != informed.Contains(v) {
						want.Add(u)
						want.Add(v)
					}
				}
				want.DifferenceWith(informed)
				w.grid.IndexInformed(informed)
				got := bitset.New(len(w.pos))
				for _, v := range w.grid.Spread(nil) {
					if got.Contains(int(v)) || informed.Contains(int(v)) {
						t.Fatalf("R=%g torus=%v frac=%g: node %d listed twice or already informed", radius, torus, frac, v)
					}
					got.Add(int(v))
				}
				if !got.Equal(want) {
					t.Fatalf("R=%g torus=%v frac=%g: spread %d nodes, want %d", radius, torus, frac, got.Count(), want.Count())
				}
			}
		}
	}
}

func TestGridSpreadBeforeIndexPanics(t *testing.T) {
	w := newWorld(rng.New(7), 10, 10, 2, false)
	w.grid.IndexInformed(bitset.New(10))
	w.grid.Moved()
	defer func() {
		if recover() == nil {
			t.Fatal("Spread after Moved did not panic")
		}
	}()
	w.grid.Spread(nil)
}
