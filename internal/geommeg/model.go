package geommeg

import (
	"math"
	"sort"

	"meg/internal/celldelta"
	"meg/internal/geom"
	"meg/internal/graph"
	"meg/internal/par"
	"meg/internal/rng"
)

// Model is a geometric Markovian evolving graph. It implements
// core.Dynamics: Reset samples node positions (i.i.d. from π for the
// stationary model), Step performs one random-walk hop per node, and
// Graph materializes the snapshot G_t = (V, {(i,j) : d(P_i, P_j) ≤ R}).
//
// The zero value is unusable; construct with New.
type Model struct {
	cfg Config
	lat *lattice
	r   *rng.RNG

	// pos holds node positions in lattice units.
	pos []point

	// grid is the cell index over pos behind Graph and the
	// snapshot-free flooding round (core.Spreader).
	grid *celldelta.Grid[point]

	// parallel is the walk's and the snapshot build's worker count
	// (core.Parallelizable); results are byte-identical for every value.
	parallel int

	// Counter-based walk state: every per-node decision in round t is
	// drawn from the stream keyed (base, node, t), so Step realizations
	// are pure functions of the trial seed — never of iteration order
	// or worker count.
	streams rng.Streams
	t       uint64

	// moves counts, per block of the parallel walk, the nodes whose
	// position changed in the last step.
	moves []int
}

// point is a lattice position.
type point struct{ x, y int32 }

// New returns a model for the given configuration. The model is not
// usable until Reset is called.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Model{
		cfg: cfg,
		lat: newLattice(cfg),
		pos: make([]point, cfg.N),
	}
	// Cells of cl ≥ R/ε lattice units: a neighbor is at most cl−1
	// units away along each axis, so it sits in the 3×3 block.
	cl := int(m.cfg.R/m.cfg.Eps) + 1
	m.grid = celldelta.NewGrid(m.pos, float64(m.lat.points()), float64(cl), m.lat.torus, celldelta.Scans[point]{
		Locate: m.locate,
		Sweep:  m.sweep,
		Spread: m.spreadCell,
	})
	return m, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the model's configuration (with defaults filled in).
func (m *Model) Config() Config { return m.cfg }

// N implements core.Dynamics.
func (m *Model) N() int { return m.cfg.N }

// SetParallelism implements core.Parallelizable: snapshot construction
// (the cell-list edge sweep and the CSR build) runs on up to workers
// goroutines. The produced snapshots are byte-identical for every
// worker count — the sweep emits edges per contiguous node block and
// concatenates blocks in order, reproducing the serial emission order
// exactly. 0 or 1 builds serially; < 0 uses all CPUs.
func (m *Model) SetParallelism(workers int) {
	if workers == 0 {
		workers = 1
	}
	m.parallel = par.Workers(workers)
	m.grid.SetWorkers(m.parallel)
}

// Side returns the physical side length of the support square.
func (m *Model) Side() float64 { return m.cfg.Side() }

// ExpectedDegree implements core.DegreeHinter: under the (near-)uniform
// stationary distribution a node expects about (n−1)·πR²/side²
// neighbors — exact on the torus, a boundary-effect estimate on the
// box. It positions the flooding engine's push→pull switch and affects
// kernel choice (speed) only, never results.
func (m *Model) ExpectedDegree() float64 {
	side := m.cfg.Side()
	frac := math.Pi * m.cfg.R * m.cfg.R / (side * side)
	if frac > 1 {
		frac = 1
	}
	return float64(m.cfg.N-1) * frac
}

// Reset implements core.Dynamics: it samples fresh node positions
// according to the configured InitMode and keeps r for the walk.
func (m *Model) Reset(r *rng.RNG) {
	m.r = r
	points := m.lat.points()
	switch m.cfg.Init {
	case InitStationary:
		if m.lat.torus {
			// On the torus |Γ| is constant, so π is exactly uniform.
			for i := range m.pos {
				m.pos[i] = point{int32(r.Intn(points)), int32(r.Intn(points))}
			}
			break
		}
		for i := range m.pos {
			m.pos[i] = m.sampleStationaryPos()
		}
	case InitUniform:
		for i := range m.pos {
			m.pos[i] = point{int32(r.Intn(points)), int32(r.Intn(points))}
		}
	case InitClustered:
		lim := points / 8
		if lim < 1 {
			lim = 1
		}
		for i := range m.pos {
			m.pos[i] = point{int32(r.Intn(lim)), int32(r.Intn(lim))}
		}
	default:
		panic("geommeg: unknown init mode")
	}
	// The walk's counter-stream base is drawn after the positions, so
	// the initial distribution is untouched by the stream discipline.
	m.streams = rng.StreamsOf(r.Uint64())
	m.t = 0
	m.grid.Moved()
}

// sampleStationaryPos draws one position from π(x) ∝ |Γ(x)| by
// rejection against the interior ball size: a uniform candidate x is
// accepted with probability |Γ(x)|/Γ_max. Acceptance is at least ≈ 1/4
// (the corner ball is about a quarter of the full ball), so the loop
// terminates quickly.
func (m *Model) sampleStationaryPos() point {
	points := m.lat.points()
	for {
		ix := m.r.Intn(points)
		iy := m.r.Intn(points)
		g := m.lat.gamma(ix, iy)
		if g == m.lat.gammaMax || m.r.Float64()*float64(m.lat.gammaMax) < float64(g) {
			return point{int32(ix), int32(iy)}
		}
	}
}

// Step implements core.Dynamics: with probability Jump each node jumps
// to a position chosen uniformly at random from its move ball Γ(x)
// (which contains x itself, so staying put is possible); otherwise it
// holds. Sampling is by rejection over the bounding box of the ball;
// acceptance is at least ≈ π/16 even in the corners.
//
// Every node's draws come from the counter stream keyed (node, round) —
// rng.At(base, u, t), with rejection attempts consuming the stream
// sequentially — so the walk is sharded over the worker pool
// (core.Parallelizable) and byte-identical for every worker count.
func (m *Model) Step() {
	if m.r == nil {
		panic("geommeg: Step before Reset")
	}
	if m.advance() > 0 {
		m.grid.Moved()
	}
}

// advance performs one synchronous walk step on the worker pool and
// returns how many nodes changed position.
func (m *Model) advance() int {
	rho := m.lat.rho
	m.t++
	if rho == 0 {
		// Move radius below the resolution: Γ(x) = {x}; positions are
		// frozen but the snapshot sequence is still well-defined.
		return 0
	}
	n := m.cfg.N
	span := 2*rho + 1
	jump := m.cfg.Jump
	workers := m.parallel
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if len(m.moves) < workers {
		m.moves = make([]int, workers)
	}
	t := m.t - 1 // the round being evaluated
	par.ForBlocks(workers, n, func(blk, lo, hi int) {
		moved := 0
		for u := lo; u < hi; u++ {
			lr := m.streams.At(uint64(u), t)
			if jump < 1 && !lr.Bernoulli(jump) {
				continue
			}
			x, y := int(m.pos[u].x), int(m.pos[u].y)
			for {
				dx := lr.Intn(span) - rho
				dy := lr.Intn(span) - rho
				if !m.lat.inDisk(dx, dy) {
					continue
				}
				nx, ny := x+dx, y+dy
				if m.lat.torus {
					nx, ny = m.lat.wrap(nx), m.lat.wrap(ny)
				} else if nx < 0 || nx > m.lat.maxIdx || ny < 0 || ny > m.lat.maxIdx {
					continue
				}
				if nx != x || ny != y {
					m.pos[u] = point{int32(nx), int32(ny)}
					moved++
				}
				break
			}
		}
		m.moves[blk] = moved
	})
	total := 0
	for _, c := range m.moves[:workers] {
		total += c
	}
	return total
}

// Graph implements core.Dynamics: it materializes the current snapshot
// with the grid's cell-list sweep (cells of side ≥ R, 3×3 neighborhood
// scan), O(n + m) plus the geometric cost of distance checks. Buffers
// are reused across steps.
func (m *Model) Graph() *graph.Graph { return m.grid.Graph() }

// locate is the grid's Locate scan.
func (m *Model) locate(cells []int32) {
	for u, p := range m.pos {
		cells[u] = m.grid.Cell(float64(p.x), float64(p.y))
	}
}

// sweep is the grid's Sweep scan: each node u walks the ascending v > u
// suffix of its block's candidates, so edges come out in ascending-u
// order with fully sorted rows, the canonical order graph.Mutable
// merges against.
func (m *Model) sweep(lo, hi int, srcs, dsts []int32) ([]int32, []int32) {
	for u := lo; u < hi; u++ {
		p := m.pos[u]
		for _, v := range m.grid.After(u) {
			if q := m.pos[v]; m.lat.adjacent(p.x, p.y, q.x, q.y) {
				srcs = append(srcs, int32(u))
				dsts = append(dsts, v)
			}
		}
	}
	return srcs, dsts
}

// Position returns the physical coordinates of node u.
func (m *Model) Position(u int) geom.Point {
	return geom.Point{
		X: float64(m.pos[u].x) * m.cfg.Eps,
		Y: float64(m.pos[u].y) * m.cfg.Eps,
	}
}

// Positions appends the physical coordinates of all nodes to dst.
func (m *Model) Positions(dst []geom.Point) []geom.Point {
	for u := 0; u < m.cfg.N; u++ {
		dst = append(dst, m.Position(u))
	}
	return dst
}

// Gamma returns |Γ(x)| for node u's current position — the stationary
// weight of that position (up to normalization).
func (m *Model) Gamma(u int) int {
	return m.lat.gamma(int(m.pos[u].x), int(m.pos[u].y))
}

// GammaAt returns |Γ(x)| for the lattice position with indices (ix, iy).
func (m *Model) GammaAt(ix, iy int) int { return m.lat.gamma(ix, iy) }

// GammaMax returns the interior move-ball size Γ_max.
func (m *Model) GammaMax() int { return m.lat.gammaMax }

// LatticePoints returns the number of lattice points per axis.
func (m *Model) LatticePoints() int { return m.lat.points() }

// CellOccupancy counts the nodes in every cell of the given grid
// (typically geom.ClaimOneGrid(side, R) for the Claim 1 experiment).
func (m *Model) CellOccupancy(grid *geom.CellGrid) []int {
	counts := make([]int, grid.NumCells())
	for u := 0; u < m.cfg.N; u++ {
		counts[grid.CellIndexOf(m.Position(u))]++
	}
	return counts
}

// NearestNodes returns the h nodes closest to the physical point p
// (using the model's metric). Spatial balls are the adversarial sets
// for geometric expansion: among all sets of a given size they minimize
// the boundary, so they witness the worst-case (h,k) constants.
func (m *Model) NearestNodes(p geom.Point, h int) []int {
	n := m.cfg.N
	if h > n {
		h = n
	}
	type nd struct {
		u int
		d float64
	}
	side := m.cfg.Side()
	all := make([]nd, n)
	for u := 0; u < n; u++ {
		pos := m.Position(u)
		var d float64
		if m.cfg.Torus {
			d = geom.TorusDist2(pos, p, side)
		} else {
			d = pos.Dist2(p)
		}
		all[u] = nd{u, d}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	out := make([]int, h)
	for i := 0; i < h; i++ {
		out[i] = all[i].u
	}
	return out
}
