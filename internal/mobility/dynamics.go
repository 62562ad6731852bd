package mobility

import (
	"math"

	"meg/internal/bitset"
	"meg/internal/celldelta"
	"meg/internal/geom"
	"meg/internal/graph"
	"meg/internal/par"
	"meg/internal/rng"
)

// Dynamics adapts any Mobility into a core.Dynamics: the snapshot at
// time t connects every pair of nodes within transmission radius R,
// under the Euclidean metric (or the toroidal metric when the mobility
// wraps). Snapshots are built with a cell-list sweep in O(n + m), and
// flooding rounds run on the same cell grid without a snapshot
// (core.Spreader).
type Dynamics struct {
	mob    Mobility
	radius float64
	r2     float64 // radius², the adjacency threshold
	torus  bool
	side   float64

	// pos is the positions copied from mob at each cell rebuild, so the
	// scans read a plain slice instead of calling Position per pair.
	pos  []geom.Point
	grid *celldelta.Grid[geom.Point]
}

// NewDynamics wraps mob with transmission radius R. It panics if R is
// not positive; a radius above a third of the side makes the grid
// a single cell.
func NewDynamics(mob Mobility, radius float64) *Dynamics {
	if radius <= 0 {
		panic("mobility: transmission radius must be positive")
	}
	d := &Dynamics{
		mob:    mob,
		radius: radius,
		r2:     radius * radius,
		torus:  mob.Torus(),
		side:   mob.Side(),
		pos:    make([]geom.Point, mob.N()),
	}
	d.grid = celldelta.NewGrid(d.pos, d.side, radius, d.torus, celldelta.Scans[geom.Point]{
		Locate: d.locate,
		Sweep:  d.sweep,
		Spread: d.spreadCell,
	})
	return d
}

// Mobility returns the wrapped mobility process.
func (d *Dynamics) Mobility() Mobility { return d.mob }

// SetParallelism implements core.Parallelizable: snapshot construction
// runs on up to workers goroutines, byte-identically for every worker
// count. 0 or 1 builds serially; < 0 uses all CPUs. Mobility processes
// that can shard their Move (the counter-stream models) receive the
// same worker count.
func (d *Dynamics) SetParallelism(workers int) {
	if workers == 0 {
		workers = 1
	}
	workers = par.Workers(workers)
	d.grid.SetWorkers(workers)
	if pm, ok := d.mob.(parallelMover); ok {
		pm.SetParallelism(workers)
	}
}

// Radius returns the transmission radius R.
func (d *Dynamics) Radius() float64 { return d.radius }

// N implements core.Dynamics.
func (d *Dynamics) N() int { return d.mob.N() }

// Reset implements core.Dynamics.
func (d *Dynamics) Reset(r *rng.RNG) {
	d.mob.Reset(r)
	d.grid.Moved()
}

// Step implements core.Dynamics.
func (d *Dynamics) Step() {
	d.mob.Move()
	d.grid.Moved()
}

// Graph implements core.Dynamics.
func (d *Dynamics) Graph() *graph.Graph { return d.grid.Graph() }

// IndexInformed implements core.Spreader: it brings the cell grid up to
// date with the current positions and splits every cell's members into
// informed and uninformed ones.
func (d *Dynamics) IndexInformed(informed *bitset.Set) { d.grid.IndexInformed(informed) }

// Spread implements core.Spreader: it appends every uninformed node
// within radius of an informed one. The distance test is the one Graph
// uses, so the result is exactly N_{G_t}(I) \ I.
func (d *Dynamics) Spread(_ *bitset.Set, newly []int32) []int32 { return d.grid.Spread(newly) }

// adjacent reports whether two positions are within radius under the
// region's metric: the arithmetic of geom.Point.Dist2 and
// geom.TorusDist2, in a body small enough to inline into the grid
// scans.
func (d *Dynamics) adjacent(p, q geom.Point) bool {
	dx, dy := math.Abs(p.X-q.X), math.Abs(p.Y-q.Y)
	if d.torus {
		dx, dy = min(dx, d.side-dx), min(dy, d.side-dy)
	}
	return dx*dx+dy*dy <= d.r2
}

// locate is the grid's Locate scan; it also takes the round's copy of
// the positions.
func (d *Dynamics) locate(cells []int32) {
	for u := range cells {
		p := d.mob.Position(u)
		d.pos[u] = p
		cells[u] = d.grid.Cell(p.X, p.Y)
	}
}

// sweep is the grid's Sweep scan: each node u walks the ascending v > u
// suffix of its block's candidates, so edges come out in ascending-u
// order with fully sorted rows.
func (d *Dynamics) sweep(lo, hi int, srcs, dsts []int32) ([]int32, []int32) {
	for u := lo; u < hi; u++ {
		p := d.pos[u]
		for _, v := range d.grid.After(u) {
			if d.adjacent(p, d.pos[v]) {
				srcs = append(srcs, int32(u))
				dsts = append(dsts, v)
			}
		}
	}
	return srcs, dsts
}

// spreadCell is the grid's Spread scan: every uninformed node of
// ids[lo:hi] scans the informed positions of its block and stops at
// the first one within radius.
func (d *Dynamics) spreadCell(pos []geom.Point, ids []int32, lo, hi int32, informed []celldelta.Span, newly []int32) []int32 {
	for i := lo; i < hi; i++ {
		p := pos[i]
	scan:
		for _, sp := range informed {
			for _, q := range pos[sp.Lo:sp.Hi] {
				if d.adjacent(p, q) {
					newly = append(newly, ids[i])
					break scan
				}
			}
		}
	}
	return newly
}
