// Package mobility implements the additional mobility models the paper
// singles out as satisfying the uniform-stationary-distribution
// property that drives the Theorem 3.2 expansion argument (Section 1,
// "Further mobility models"):
//
//   - the random waypoint model on a torus,
//   - the random direction model with reflection (the billiard model),
//   - the walkers model (random jumps within a disk) on a torus,
//   - the restricted i.i.d. disk model of the paper's reference [24],
//     in which every step resamples the position uniformly in a fixed
//     disk around a per-node home point (no temporal dependence).
//
// Each model exposes positions over a square of a given side; the
// Dynamics adapter turns any of them into a core.Dynamics by connecting
// nodes within transmission radius R each step (with a cell-list
// builder, like the lattice model). All models Reset into (an exact or
// asymptotically exact sample of) their stationary distribution, so the
// resulting evolving graphs are stationary MEGs in the paper's sense.
package mobility

import (
	"math"

	"meg/internal/geom"
	"meg/internal/par"
	"meg/internal/rng"
)

// parallelMover is optionally implemented by mobility processes whose
// Move shards over a worker pool. Implementations must keep positions
// byte-identical for every worker count — the four core models do so
// by drawing every node's round decisions from the counter stream
// keyed (node, round) via rng.Streams, never from a shared sequential
// generator. The Dynamics adapter forwards its own parallelism knob.
type parallelMover interface {
	SetParallelism(workers int)
}

// moveWorkers normalizes a stored worker knob for par.ForBlocks.
func moveWorkers(workers int) int {
	if workers == 0 {
		return 1
	}
	return par.Workers(workers)
}

// Mobility is a discrete-time node mobility process over the square
// [0, Side]² (wrapping toroidally when Torus reports true).
type Mobility interface {
	// N returns the number of nodes.
	N() int
	// Side returns the side length of the support region.
	Side() float64
	// Torus reports whether the region wraps toroidally (affects the
	// connectivity metric).
	Torus() bool
	// Reset samples initial positions from the model's stationary
	// distribution, keeping r for subsequent moves.
	Reset(r *rng.RNG)
	// Move advances all nodes by one time step.
	Move()
	// Position returns the current position of node u.
	Position(u int) geom.Point
}

// WaypointTorus is the random waypoint model on a torus: every node
// picks a uniform destination and travels toward it along the shortest
// toroidal path at its leg speed; on arrival it picks a new destination
// and a new speed. With no pause time and uniform waypoints the
// stationary position distribution on the torus is uniform.
type WaypointTorus struct {
	side        float64
	vmin, vmax  float64
	pos, target []geom.Point
	speed       []float64
	streams     rng.Streams
	t           uint64
	workers     int
}

// NewWaypointTorus returns a waypoint model for n nodes on a side×side
// torus with per-leg speeds uniform in [vmin, vmax]. It panics on
// non-positive side or speeds, or vmin > vmax.
func NewWaypointTorus(n int, side, vmin, vmax float64) *WaypointTorus {
	if n < 1 || side <= 0 || vmin <= 0 || vmax < vmin {
		panic("mobility: invalid waypoint parameters")
	}
	return &WaypointTorus{
		side: side, vmin: vmin, vmax: vmax,
		pos:    make([]geom.Point, n),
		target: make([]geom.Point, n),
		speed:  make([]float64, n),
	}
}

// N implements Mobility.
func (w *WaypointTorus) N() int { return len(w.pos) }

// Side implements Mobility.
func (w *WaypointTorus) Side() float64 { return w.side }

// Torus implements Mobility.
func (w *WaypointTorus) Torus() bool { return true }

// SetParallelism implements parallelMover.
func (w *WaypointTorus) SetParallelism(workers int) { w.workers = moveWorkers(workers) }

// Reset implements Mobility: uniform positions, fresh waypoints. The
// counter-stream base for subsequent moves is drawn after the initial
// state, so the initial distribution is untouched by the discipline.
func (w *WaypointTorus) Reset(r *rng.RNG) {
	for i := range w.pos {
		w.pos[i] = geom.Point{X: r.Float64() * w.side, Y: r.Float64() * w.side}
		w.target[i] = geom.Point{X: r.Float64() * w.side, Y: r.Float64() * w.side}
		w.speed[i] = w.legSpeed(r)
	}
	w.streams = rng.StreamsOf(r.Uint64())
	w.t = 0
}

func (w *WaypointTorus) legSpeed(r *rng.RNG) float64 {
	return w.vmin + (w.vmax-w.vmin)*r.Float64()
}

// Move implements Mobility. A node draws from its (node, round) stream
// only on waypoint arrival, so the walk shards over the worker pool
// byte-identically for every worker count.
func (w *WaypointTorus) Move() {
	par.ForBlocks(moveWorkers(w.workers), len(w.pos), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p, t := w.pos[i], w.target[i]
			dx := shortestDelta(t.X-p.X, w.side)
			dy := shortestDelta(t.Y-p.Y, w.side)
			d := math.Sqrt(dx*dx + dy*dy)
			if d <= w.speed[i] {
				lr := w.streams.At(uint64(i), w.t)
				w.pos[i] = t
				w.target[i] = geom.Point{X: lr.Float64() * w.side, Y: lr.Float64() * w.side}
				w.speed[i] = w.legSpeed(&lr)
				continue
			}
			scale := w.speed[i] / d
			w.pos[i] = geom.Point{
				X: geom.WrapTorus(p.X+dx*scale, w.side),
				Y: geom.WrapTorus(p.Y+dy*scale, w.side),
			}
		}
	})
	w.t++
}

// Position implements Mobility.
func (w *WaypointTorus) Position(u int) geom.Point { return w.pos[u] }

// shortestDelta folds a coordinate difference into [-side/2, side/2],
// the displacement along the shortest toroidal path.
func shortestDelta(d, side float64) float64 {
	d = math.Mod(d, side)
	switch {
	case d > side/2:
		d -= side
	case d < -side/2:
		d += side
	}
	return d
}

// Billiard is the random direction model with reflection: nodes travel
// with constant speed along a heading, reflect specularly at the square
// boundary, and re-draw a uniform heading with probability turnProb per
// step. Uniform position × uniform heading is stationary for this
// dynamics (the paper's references [3, 25, 28]).
type Billiard struct {
	side     float64
	speed    float64
	turnProb float64
	pos      []geom.Point
	vx, vy   []float64
	streams  rng.Streams
	t        uint64
	workers  int
}

// NewBilliard returns a billiard model with the given constant speed
// and per-step direction-change probability in [0, 1].
func NewBilliard(n int, side, speed, turnProb float64) *Billiard {
	if n < 1 || side <= 0 || speed <= 0 || turnProb < 0 || turnProb > 1 {
		panic("mobility: invalid billiard parameters")
	}
	return &Billiard{
		side: side, speed: speed, turnProb: turnProb,
		pos: make([]geom.Point, n),
		vx:  make([]float64, n),
		vy:  make([]float64, n),
	}
}

// N implements Mobility.
func (b *Billiard) N() int { return len(b.pos) }

// Side implements Mobility.
func (b *Billiard) Side() float64 { return b.side }

// Torus implements Mobility.
func (b *Billiard) Torus() bool { return false }

// SetParallelism implements parallelMover.
func (b *Billiard) SetParallelism(workers int) { b.workers = moveWorkers(workers) }

// Reset implements Mobility: uniform positions, uniform headings.
func (b *Billiard) Reset(r *rng.RNG) {
	for i := range b.pos {
		b.pos[i] = geom.Point{X: r.Float64() * b.side, Y: r.Float64() * b.side}
		b.setHeading(i, r)
	}
	b.streams = rng.StreamsOf(r.Uint64())
	b.t = 0
}

func (b *Billiard) setHeading(i int, r *rng.RNG) {
	theta := 2 * math.Pi * r.Float64()
	b.vx[i] = b.speed * math.Cos(theta)
	b.vy[i] = b.speed * math.Sin(theta)
}

// Move implements Mobility. Each node's turn decision (and heading, on
// a turn) comes from its (node, round) stream, so the walk shards over
// the worker pool byte-identically for every worker count.
func (b *Billiard) Move() {
	par.ForBlocks(moveWorkers(b.workers), len(b.pos), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if b.turnProb > 0 {
				lr := b.streams.At(uint64(i), b.t)
				if lr.Bernoulli(b.turnProb) {
					b.setHeading(i, &lr)
				}
			}
			x, flipX := geom.Reflect(b.pos[i].X+b.vx[i], b.side)
			y, flipY := geom.Reflect(b.pos[i].Y+b.vy[i], b.side)
			if flipX {
				b.vx[i] = -b.vx[i]
			}
			if flipY {
				b.vy[i] = -b.vy[i]
			}
			b.pos[i] = geom.Point{X: x, Y: y}
		}
	})
	b.t++
}

// Position implements Mobility.
func (b *Billiard) Position(u int) geom.Point { return b.pos[u] }

// WalkersTorus is the walkers model on a torus in continuous space:
// each step every node jumps to a uniform point of the disk of radius
// moveRadius around its position (coordinates wrap). The uniform
// distribution is stationary by symmetry.
type WalkersTorus struct {
	side       float64
	moveRadius float64
	pos        []geom.Point
	streams    rng.Streams
	t          uint64
	workers    int
}

// NewWalkersTorus returns a walkers model with jump radius moveRadius
// on a side×side torus.
func NewWalkersTorus(n int, side, moveRadius float64) *WalkersTorus {
	if n < 1 || side <= 0 || moveRadius < 0 {
		panic("mobility: invalid walkers parameters")
	}
	return &WalkersTorus{side: side, moveRadius: moveRadius, pos: make([]geom.Point, n)}
}

// N implements Mobility.
func (w *WalkersTorus) N() int { return len(w.pos) }

// Side implements Mobility.
func (w *WalkersTorus) Side() float64 { return w.side }

// Torus implements Mobility.
func (w *WalkersTorus) Torus() bool { return true }

// SetParallelism implements parallelMover.
func (w *WalkersTorus) SetParallelism(workers int) { w.workers = moveWorkers(workers) }

// Reset implements Mobility: uniform positions.
func (w *WalkersTorus) Reset(r *rng.RNG) {
	for i := range w.pos {
		w.pos[i] = geom.Point{X: r.Float64() * w.side, Y: r.Float64() * w.side}
	}
	w.streams = rng.StreamsOf(r.Uint64())
	w.t = 0
}

// Move implements Mobility. Each node's jump comes from its
// (node, round) stream, so the walk shards over the worker pool
// byte-identically for every worker count.
func (w *WalkersTorus) Move() {
	par.ForBlocks(moveWorkers(w.workers), len(w.pos), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			lr := w.streams.At(uint64(i), w.t)
			dx, dy := uniformDisk(&lr, w.moveRadius)
			w.pos[i] = geom.Point{
				X: geom.WrapTorus(w.pos[i].X+dx, w.side),
				Y: geom.WrapTorus(w.pos[i].Y+dy, w.side),
			}
		}
	})
	w.t++
}

// Position implements Mobility.
func (w *WalkersTorus) Position(u int) geom.Point { return w.pos[u] }

// RestrictedDisk is the restricted mobility model of the paper's
// reference [24]: node u has a fixed home point h_u and at every step
// its position is resampled uniformly in the disk of radius roam around
// h_u, independently of the previous position (no temporal
// correlation). Homes are uniform in the square; positions are clamped
// to the square.
type RestrictedDisk struct {
	side    float64
	roam    float64
	home    []geom.Point
	pos     []geom.Point
	streams rng.Streams
	t       uint64
	workers int
}

// NewRestrictedDisk returns a restricted-disk model with roaming radius
// roam on a side×side square.
func NewRestrictedDisk(n int, side, roam float64) *RestrictedDisk {
	if n < 1 || side <= 0 || roam < 0 {
		panic("mobility: invalid restricted-disk parameters")
	}
	return &RestrictedDisk{
		side: side, roam: roam,
		home: make([]geom.Point, n),
		pos:  make([]geom.Point, n),
	}
}

// N implements Mobility.
func (m *RestrictedDisk) N() int { return len(m.pos) }

// Side implements Mobility.
func (m *RestrictedDisk) Side() float64 { return m.side }

// Torus implements Mobility.
func (m *RestrictedDisk) Torus() bool { return false }

// SetParallelism implements parallelMover.
func (m *RestrictedDisk) SetParallelism(workers int) { m.workers = moveWorkers(workers) }

// Reset implements Mobility: uniform homes, then one position draw.
func (m *RestrictedDisk) Reset(r *rng.RNG) {
	for i := range m.home {
		m.home[i] = geom.Point{X: r.Float64() * m.side, Y: r.Float64() * m.side}
	}
	m.streams = rng.StreamsOf(r.Uint64())
	m.t = 0
	m.Move()
}

// Move implements Mobility. Each node's resample comes from its
// (node, round) stream, so the walk shards over the worker pool
// byte-identically for every worker count.
func (m *RestrictedDisk) Move() {
	par.ForBlocks(moveWorkers(m.workers), len(m.pos), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			lr := m.streams.At(uint64(i), m.t)
			dx, dy := uniformDisk(&lr, m.roam)
			m.pos[i] = geom.Point{
				X: geom.Clamp(m.home[i].X+dx, 0, m.side),
				Y: geom.Clamp(m.home[i].Y+dy, 0, m.side),
			}
		}
	})
	m.t++
}

// Position implements Mobility.
func (m *RestrictedDisk) Position(u int) geom.Point { return m.pos[u] }

// uniformDisk returns a uniform point of the closed disk of the given
// radius via rejection from the bounding square.
func uniformDisk(r *rng.RNG, radius float64) (dx, dy float64) {
	if radius == 0 {
		return 0, 0
	}
	for {
		dx = (2*r.Float64() - 1) * radius
		dy = (2*r.Float64() - 1) * radius
		if dx*dx+dy*dy <= radius*radius {
			return dx, dy
		}
	}
}
