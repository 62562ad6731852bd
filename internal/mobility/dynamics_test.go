package mobility

import (
	"testing"

	"meg/internal/core"
	"meg/internal/geom"
	"meg/internal/rng"
)

// TestDynamicsGraphAgainstBruteForce checks the cell-list snapshot
// builder of the mobility adapter against the O(n²) definition for all
// models and both metrics.
func TestDynamicsGraphAgainstBruteForce(t *testing.T) {
	const side = 18.0
	const radius = 2.3
	r := rng.New(21)
	for name, mob := range allModels(70, side) {
		d := NewDynamics(mob, radius)
		d.Reset(r.Split())
		for s := 0; s < 3; s++ {
			g := d.Graph()
			for u := 0; u < mob.N(); u++ {
				for v := u + 1; v < mob.N(); v++ {
					pu, pv := mob.Position(u), mob.Position(v)
					var want bool
					if mob.Torus() {
						want = geom.TorusDist2(pu, pv, side) <= radius*radius
					} else {
						want = pu.Dist2(pv) <= radius*radius
					}
					if got := g.HasEdge(u, v); got != want {
						t.Fatalf("%s step %d: edge (%d,%d) = %v, want %v", name, s, u, v, got, want)
					}
				}
			}
			d.Step()
		}
	}
}

func TestDynamicsBruteForcePathSmallGrid(t *testing.T) {
	// Radius close to side leaves fewer than 3 cells per axis, so the
	// grid is one cell and the sweep is the all-pairs scan.
	const side = 5.0
	mob := NewWalkersTorus(25, side, 1)
	d := NewDynamics(mob, 2.4)
	d.Reset(rng.New(23))
	g := d.Graph()
	for u := 0; u < 25; u++ {
		for v := u + 1; v < 25; v++ {
			want := geom.TorusDist2(mob.Position(u), mob.Position(v), side) <= 2.4*2.4
			if g.HasEdge(u, v) != want {
				t.Fatalf("brute-force path wrong at (%d,%d)", u, v)
			}
		}
	}
}

func TestDynamicsImplementsInterface(t *testing.T) {
	var _ core.Dynamics = NewDynamics(NewBilliard(5, 10, 1, 0.1), 2)
}

func TestDynamicsAccessors(t *testing.T) {
	mob := NewBilliard(5, 10, 1, 0.1)
	d := NewDynamics(mob, 2)
	if d.N() != 5 || d.Radius() != 2 || d.Mobility() != mob {
		t.Fatal("accessors wrong")
	}
}

func TestDynamicsGraphCached(t *testing.T) {
	d := NewDynamics(NewWalkersTorus(30, 15, 1), 2)
	d.Reset(rng.New(25))
	g1 := d.Graph()
	g2 := d.Graph()
	if g1 != g2 {
		t.Fatal("Graph not cached between steps")
	}
	d.Step()
	_ = d.Graph() // must rebuild without panicking
}

func TestDynamicsPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDynamics(NewWalkersTorus(5, 10, 1), 0)
}

func TestFloodingOnMobilityModels(t *testing.T) {
	// End-to-end: every mobility model floods completely with a
	// generous radius.
	const side = 16.0
	r := rng.New(27)
	for name, mob := range allModels(60, side) {
		d := NewDynamics(mob, 6)
		d.Reset(r.Split())
		res := core.Flood(d, 0, core.DefaultRoundCap(60))
		if !res.Completed {
			t.Errorf("%s: flooding did not complete", name)
		}
	}
}
