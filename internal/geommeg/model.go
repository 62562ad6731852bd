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

	// ix, iy are node positions in lattice units.
	ix, iy []int32

	// Cell-list scratch for snapshot construction.
	cellSize   int // cell side in lattice units (≥ R/ε)
	cellsPer   int // cells per axis
	cellCounts []int32
	cellStarts []int32
	cellOrder  []int32
	nodeCell   []int32
	cellsValid bool // cellStarts/cellOrder/nodeCell match current positions
	// morton is the cache-aware Z-order cell numbering (nil under brute
	// force): 3×3 block neighbors are memory neighbors, so the merged
	// block index and the sweep walk nearly sequentially at large n.
	// Cell numbering never reaches snapshots or deltas, so the layout
	// is invisible to results.
	morton     *celldelta.Morton
	builder    *graph.Builder
	g          *graph.Graph
	dirty      bool
	bruteForce bool // too few cells for a 3×3 scan: compare all pairs

	// parallel is the snapshot-build worker count (core.Parallelizable);
	// snapshots are byte-identical for every value.
	parallel int
	// sweep holds the parallel cell sweep's per-block edge buffers.
	sweep graph.BlockSweep

	// Counter-based walk state: every per-node decision in round t is
	// drawn from the stream keyed (base, node, t), so Step realizations
	// are pure functions of the trial seed — never of iteration order
	// or worker count.
	base uint64
	t    uint64

	// blocks holds, per cell, the merged ascending node list of its
	// 3×3 block — rebuilt once per snapshot so the edge sweep can
	// binary-search to each node's v > u suffix and emit sorted rows
	// with no per-node sort.
	blocks celldelta.Blocks

	// moveBufs holds the parallel walk's per-block moved-node lists;
	// movedNodes is their concatenation in block order (ascending).
	moveBufs   [][]int32
	movedNodes []int32

	// Incremental (StepDelta) machinery, allocated on first use:
	// time-t positions, the time-t cell structure (double-buffered with
	// the current one), the moved markers, and the shared moved-node
	// churn classifier.
	prevIx, prevIy []int32
	oldCellStarts  []int32
	oldCellOrder   []int32
	oldNodeCell    []int32
	movedMark      []bool
	classifier     celldelta.Classifier

	// spread is the snapshot-free flooding round's scratch
	// (core.Spreader), allocated on first use.
	spread spreadIndex
}

// New returns a model for the given configuration. The model is not
// usable until Reset is called.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Model{
		cfg:     cfg,
		lat:     newLattice(cfg),
		ix:      make([]int32, cfg.N),
		iy:      make([]int32, cfg.N),
		builder: graph.NewBuilder(cfg.N),
	}
	points := m.lat.points()
	cl := int(m.cfg.R/m.cfg.Eps) + 1 // ≥ R/ε, so neighbors sit in the 3×3 block
	k := points / cl
	if k < 1 {
		k = 1
	}
	m.cellSize = cl
	m.cellsPer = k
	m.bruteForce = k < 3
	if !m.bruteForce {
		m.morton = celldelta.NewMorton(k)
	}
	m.cellCounts = make([]int32, k*k+1)
	m.cellStarts = make([]int32, k*k+1)
	m.cellOrder = make([]int32, cfg.N)
	m.nodeCell = make([]int32, cfg.N)
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
			for i := range m.ix {
				m.ix[i] = int32(r.Intn(points))
				m.iy[i] = int32(r.Intn(points))
			}
			break
		}
		for i := range m.ix {
			m.ix[i], m.iy[i] = m.sampleStationaryPos()
		}
	case InitUniform:
		for i := range m.ix {
			m.ix[i] = int32(r.Intn(points))
			m.iy[i] = int32(r.Intn(points))
		}
	case InitClustered:
		lim := points / 8
		if lim < 1 {
			lim = 1
		}
		for i := range m.ix {
			m.ix[i] = int32(r.Intn(lim))
			m.iy[i] = int32(r.Intn(lim))
		}
	default:
		panic("geommeg: unknown init mode")
	}
	// The walk's counter-stream base is drawn after the positions, so
	// the initial distribution is untouched by the stream discipline.
	m.base = r.Uint64()
	m.t = 0
	m.dirty = true
	m.cellsValid = false
	m.spread.ready = false
}

// sampleStationaryPos draws one position from π(x) ∝ |Γ(x)| by
// rejection against the interior ball size: a uniform candidate x is
// accepted with probability |Γ(x)|/Γ_max. Acceptance is at least ≈ 1/4
// (the corner ball is about a quarter of the full ball), so the loop
// terminates quickly.
func (m *Model) sampleStationaryPos() (int32, int32) {
	points := m.lat.points()
	for {
		ix := m.r.Intn(points)
		iy := m.r.Intn(points)
		g := m.lat.gamma(ix, iy)
		if g == m.lat.gammaMax || m.r.Float64()*float64(m.lat.gammaMax) < float64(g) {
			return int32(ix), int32(iy)
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
	m.advance()
	m.spread.ready = false
	if len(m.movedNodes) > 0 {
		m.dirty = true
		m.cellsValid = false
	}
}

// advance performs one synchronous walk step on the worker pool,
// recording the nodes whose position actually changed (per contiguous
// block, concatenated in block order, hence ascending).
func (m *Model) advance() {
	m.movedNodes = m.movedNodes[:0]
	rho := m.lat.rho
	m.t++
	if rho == 0 {
		// Move radius below the resolution: Γ(x) = {x}; positions are
		// frozen but the snapshot sequence is still well-defined.
		return
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
	if len(m.moveBufs) < workers {
		m.moveBufs = append(m.moveBufs, make([][]int32, workers-len(m.moveBufs))...)
	}
	t := m.t - 1 // the round being evaluated
	par.ForBlocks(workers, n, func(blk, lo, hi int) {
		buf := m.moveBufs[blk][:0]
		for u := lo; u < hi; u++ {
			lr := rng.At(m.base, uint64(u), t)
			if jump < 1 && !lr.Bernoulli(jump) {
				continue
			}
			x, y := int(m.ix[u]), int(m.iy[u])
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
					m.ix[u], m.iy[u] = int32(nx), int32(ny)
					buf = append(buf, int32(u))
				}
				break
			}
		}
		m.moveBufs[blk] = buf
	})
	for blk := 0; blk < workers; blk++ {
		m.movedNodes = append(m.movedNodes, m.moveBufs[blk]...)
	}
}

// StepDelta implements core.DeltaDynamics: it advances the walk with
// the exact same draws as Step and returns the edge churn computed
// locally — only the 3×3 cell neighborhoods around each moved node's
// old and new position are examined, so the cost scales with how many
// nodes moved (the Jump·n expectation) instead of with n. The time-t
// cell structure is kept double-buffered for the backward-looking scan.
func (m *Model) StepDelta() graph.Delta {
	if m.r == nil {
		panic("geommeg: StepDelta before Reset")
	}
	n := m.cfg.N
	if m.prevIx == nil {
		m.prevIx = make([]int32, n)
		m.prevIy = make([]int32, n)
		m.movedMark = make([]bool, n)
	}
	if !m.bruteForce {
		if !m.cellsValid {
			m.buildCells()
		}
		m.swapCells()
	}
	copy(m.prevIx, m.ix)
	copy(m.prevIy, m.iy)
	m.advance()
	m.spread.ready = false
	if !m.bruteForce {
		m.buildCells()
	}
	if len(m.movedNodes) == 0 {
		return graph.Delta{}
	}
	m.dirty = true
	return m.classifier.Classify(celldelta.Config{
		N:         m.cfg.N,
		CellsPer:  m.cellsPer,
		Torus:     m.lat.torus,
		Morton:    m.morton,
		Brute:     m.bruteForce,
		Moved:     m.movedNodes,
		MovedMark: m.movedMark,
		Old: celldelta.Grid{
			NodeCell: m.oldNodeCell, Starts: m.oldCellStarts, Order: m.oldCellOrder,
			Adjacent: func(u, v int) bool {
				return m.lat.adjacent(m.prevIx[u], m.prevIy[u], m.prevIx[v], m.prevIy[v])
			},
		},
		New: celldelta.Grid{
			NodeCell: m.nodeCell, Starts: m.cellStarts, Order: m.cellOrder,
			Adjacent: func(u, v int) bool {
				return m.lat.adjacent(m.ix[u], m.iy[u], m.ix[v], m.iy[v])
			},
		},
	}, m.parallel)
}

// swapCells exchanges the current cell structure with the old-structure
// buffers (allocating them on first use), preserving the time-t view
// for StepDelta's backward scan.
func (m *Model) swapCells() {
	if m.oldCellStarts == nil {
		k := m.cellsPer
		m.oldCellStarts = make([]int32, k*k+1)
		m.oldCellOrder = make([]int32, m.cfg.N)
		m.oldNodeCell = make([]int32, m.cfg.N)
	}
	m.cellStarts, m.oldCellStarts = m.oldCellStarts, m.cellStarts
	m.cellOrder, m.oldCellOrder = m.oldCellOrder, m.cellOrder
	m.nodeCell, m.oldNodeCell = m.oldNodeCell, m.nodeCell
	m.cellsValid = false
}

// cellIndexOf returns the flat cell index of lattice position (x, y)
// in the model's Z-order layout (row-major under brute force, where
// cells are never built). The last cell per axis absorbs the remainder
// so that every cell is at least R/ε wide and the 3×3 neighbor scan is
// exhaustive.
func (m *Model) cellIndexOf(x, y int32) int32 {
	cx := int(x) / m.cellSize
	cy := int(y) / m.cellSize
	if cx >= m.cellsPer {
		cx = m.cellsPer - 1
	}
	if cy >= m.cellsPer {
		cy = m.cellsPer - 1
	}
	return m.morton.Cell(cx, cy)
}

// Graph implements core.Dynamics: it materializes the current snapshot
// with a cell-list sweep (cells of side ≥ R, 3×3 neighborhood scan),
// O(n + m) plus the geometric cost of distance checks. Buffers are
// reused across steps.
func (m *Model) Graph() *graph.Graph {
	if !m.dirty {
		return m.g
	}
	n := m.cfg.N
	m.builder.Reset(n)
	if m.bruteForce {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if m.lat.adjacent(m.ix[u], m.iy[u], m.ix[v], m.iy[v]) {
					m.builder.AddEdge(u, v)
				}
			}
		}
		m.g = m.builder.Build()
		m.dirty = false
		return m.g
	}

	if !m.cellsValid {
		m.buildCells()
	}
	m.blocks.BuildLayout(m.cellsPer, m.lat.torus, m.morton, m.cellStarts, m.cellOrder, m.parallel)

	// Edge sweep: per contiguous node block, each worker emits its
	// block's (u, v > u) edges into a private buffer in the same order
	// the serial u-ascending loop would; graph.BlockSweep concatenates
	// blocks in order, reproducing the serial edge list — and with it
	// the CSR snapshot — byte-identically for every worker count.
	m.g = m.sweep.Run(m.builder, m.parallel, n, func(lo, hi int, srcs, dsts []int32) ([]int32, []int32) {
		return m.sweepRange(lo, hi, srcs, dsts)
	})
	m.dirty = false
	return m.g
}

// buildCells (re)computes the cell list — nodeCell, cellStarts,
// cellOrder — for the current positions. Within a cell, nodes appear in
// ascending id (the counting sort visits u ascending).
func (m *Model) buildCells() {
	n := m.cfg.N
	k := m.cellsPer
	counts := m.cellCounts[:k*k+1]
	for i := range counts {
		counts[i] = 0
	}
	for u := 0; u < n; u++ {
		c := m.cellIndexOf(m.ix[u], m.iy[u])
		m.nodeCell[u] = c
		counts[c+1]++
	}
	starts := m.cellStarts[:k*k+1]
	starts[0] = 0
	for i := 1; i <= k*k; i++ {
		starts[i] = starts[i-1] + counts[i]
	}
	cursor := counts[:k*k] // reuse as cursor array
	copy(cursor, starts[:k*k])
	for u := 0; u < n; u++ {
		c := m.nodeCell[u]
		m.cellOrder[cursor[c]] = int32(u)
		cursor[c]++
	}
	m.cellsValid = true
}

// sweepRange scans nodes [lo, hi): each node u walks the ascending
// v > u suffix of its cell's merged 3×3 candidate list, so edges come
// out in ascending-u order with fully sorted rows — the canonical
// order the incremental graph.Mutable path merges against (the
// smaller-endpoint prefix of a CSR row is ascending automatically) —
// with no per-node filtering or sorting.
func (m *Model) sweepRange(lo, hi int, srcs, dsts []int32) ([]int32, []int32) {
	for u := lo; u < hi; u++ {
		for _, v := range m.blocks.After(m.nodeCell[u], u) {
			if m.lat.adjacent(m.ix[u], m.iy[u], m.ix[v], m.iy[v]) {
				srcs = append(srcs, int32(u))
				dsts = append(dsts, int32(v))
			}
		}
	}
	return srcs, dsts
}

// Position returns the physical coordinates of node u.
func (m *Model) Position(u int) geom.Point {
	return geom.Point{
		X: float64(m.ix[u]) * m.cfg.Eps,
		Y: float64(m.iy[u]) * m.cfg.Eps,
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
	return m.lat.gamma(int(m.ix[u]), int(m.iy[u]))
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
