package geommeg

import "math"

// lattice captures the discrete support of node positions: the points
// {(iε, jε)} with integer i, j in [0, maxIdx] (square) or Z mod period
// (torus), together with the move-ball geometry.
type lattice struct {
	eps    float64
	maxIdx int // largest coordinate index (square: 0..maxIdx inclusive)
	period int // torus only: number of distinct indices per axis
	torus  bool

	// Move ball geometry: rho = ⌊r/ε⌋ in lattice units and, for each
	// |dx| ≤ rho, the largest |dy| with dx²+dy² ≤ (r/ε)².
	rho      int
	dyMax    []int32
	gammaMax int // |Γ(x)| for interior x (full disk point count)

	// Transmission radius in squared lattice units.
	radius2 float64
}

// newLattice derives the lattice from a validated config.
func newLattice(cfg Config) *lattice {
	cfg = cfg.withDefaults()
	side := cfg.Side()
	l := &lattice{eps: cfg.Eps, torus: cfg.Torus}
	if cfg.Torus {
		l.period = int(math.Floor(side / cfg.Eps))
		if l.period < 1 {
			l.period = 1
		}
		l.maxIdx = l.period - 1
	} else {
		l.maxIdx = int(math.Floor(side / cfg.Eps))
	}
	rhoF := cfg.MoveRadius / cfg.Eps
	l.rho = int(math.Floor(rhoF))
	l.dyMax = make([]int32, l.rho+1)
	rho2 := rhoF * rhoF
	for dx := 0; dx <= l.rho; dx++ {
		l.dyMax[dx] = int32(math.Floor(math.Sqrt(rho2 - float64(dx*dx))))
	}
	for dx := -l.rho; dx <= l.rho; dx++ {
		w := int(l.dyMax[abs(dx)])
		l.gammaMax += 2*w + 1
	}
	rl := cfg.R / cfg.Eps
	l.radius2 = rl * rl
	return l
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// points returns the number of lattice points per axis.
func (l *lattice) points() int {
	if l.torus {
		return l.period
	}
	return l.maxIdx + 1
}

// gamma returns |Γ(x)| for the position with indices (ix, iy): the
// number of lattice points within move distance r, clipped to the
// square (constant gammaMax on the torus). Γ always contains x itself.
func (l *lattice) gamma(ix, iy int) int {
	if l.torus {
		return l.gammaMax
	}
	count := 0
	for dx := -l.rho; dx <= l.rho; dx++ {
		x := ix + dx
		if x < 0 || x > l.maxIdx {
			continue
		}
		w := int(l.dyMax[abs(dx)])
		lo, hi := iy-w, iy+w
		if lo < 0 {
			lo = 0
		}
		if hi > l.maxIdx {
			hi = l.maxIdx
		}
		if hi >= lo {
			count += hi - lo + 1
		}
	}
	return count
}

// inDisk reports whether the lattice offset (dx, dy) lies in the move
// ball.
func (l *lattice) inDisk(dx, dy int) bool {
	if abs(dx) > l.rho {
		return false
	}
	return abs(dy) <= int(l.dyMax[abs(dx)])
}

// wrap maps index x into the torus range [0, period).
func (l *lattice) wrap(x int) int {
	x %= l.period
	if x < 0 {
		x += l.period
	}
	return x
}

// adjacent reports whether two positions are within transmission radius
// R, using the metric of the model (Euclidean, toroidal on the torus).
// Positions lie in [0, period) on the torus, so a coordinate difference
// folds with one comparison. The body stays small enough to inline
// into the grid scans.
func (l *lattice) adjacent(ax, ay, bx, by int32) bool {
	dx, dy := abs(int(ax)-int(bx)), abs(int(ay)-int(by))
	if l.torus {
		dx, dy = min(dx, l.period-dx), min(dy, l.period-dy)
	}
	return float64(dx*dx+dy*dy) <= l.radius2
}
