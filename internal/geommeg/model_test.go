package geommeg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"meg/internal/geom"
	"meg/internal/rng"
)

func validCfg(n int) Config {
	return Config{N: n, R: 3, MoveRadius: 1.5}
}

func TestConfigValidate(t *testing.T) {
	if err := validCfg(64).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{N: 1, R: 3},
		{N: 64, R: 0},
		{N: 64, R: 3, MoveRadius: -1},
		{N: 64, R: 3, Eps: -0.5},
		{N: 64, R: 3, Eps: 4}, // ε > R
		{N: 64, R: 3, Density: -2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{N: 100, R: 3}
	if got := c.Side(); got != 10 {
		t.Fatalf("Side = %v, want 10", got)
	}
	c.Density = 4
	if got := c.Side(); got != 5 {
		t.Fatalf("Side at δ=4 = %v, want 5", got)
	}
}

func TestConnectivityRadius(t *testing.T) {
	got := ConnectivityRadius(1024, 1, 2)
	want := 2 * math.Sqrt(math.Log(1024))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ConnectivityRadius = %v, want %v", got, want)
	}
	if ConnectivityRadius(1024, 0, 2) != want {
		t.Error("zero density should default to 1")
	}
}

// gammaBruteForce counts lattice points within move distance of (ix,iy)
// directly from the definition.
func gammaBruteForce(cfg Config, ix, iy int) int {
	cfg = cfg.withDefaults()
	maxIdx := int(math.Floor(cfg.Side() / cfg.Eps))
	rho := cfg.MoveRadius / cfg.Eps
	count := 0
	for x := 0; x <= maxIdx; x++ {
		for y := 0; y <= maxIdx; y++ {
			dx, dy := float64(x-ix), float64(y-iy)
			if dx*dx+dy*dy <= rho*rho {
				count++
			}
		}
	}
	return count
}

func TestGammaAgainstBruteForce(t *testing.T) {
	cfg := Config{N: 100, R: 3, MoveRadius: 2.3, Eps: 1}
	m := MustNew(cfg)
	pts := m.LatticePoints()
	positions := [][2]int{
		{0, 0}, {0, 5}, {pts - 1, pts - 1}, {pts / 2, pts / 2}, {1, pts - 2}, {2, 0},
	}
	for _, p := range positions {
		want := gammaBruteForce(cfg, p[0], p[1])
		if got := m.GammaAt(p[0], p[1]); got != want {
			t.Errorf("Gamma(%d,%d) = %d, want %d", p[0], p[1], got, want)
		}
	}
}

func TestGammaFractionalEps(t *testing.T) {
	cfg := Config{N: 64, R: 2, MoveRadius: 1.2, Eps: 0.5}
	m := MustNew(cfg)
	pts := m.LatticePoints()
	for _, p := range [][2]int{{0, 0}, {3, 3}, {pts - 1, 0}} {
		want := gammaBruteForce(cfg, p[0], p[1])
		if got := m.GammaAt(p[0], p[1]); got != want {
			t.Errorf("ε=0.5 Gamma(%d,%d) = %d, want %d", p[0], p[1], got, want)
		}
	}
}

func TestGammaMaxIsInterior(t *testing.T) {
	m := MustNew(Config{N: 400, R: 4, MoveRadius: 2})
	center := m.LatticePoints() / 2
	if m.GammaMax() != m.GammaAt(center, center) {
		t.Fatalf("GammaMax %d != interior gamma %d", m.GammaMax(), m.GammaAt(center, center))
	}
	if corner := m.GammaAt(0, 0); corner >= m.GammaMax() {
		t.Fatalf("corner gamma %d not smaller than interior %d", corner, m.GammaMax())
	}
}

func TestGammaTorusConstant(t *testing.T) {
	m := MustNew(Config{N: 256, R: 3, MoveRadius: 2, Torus: true})
	g00 := m.GammaAt(0, 0)
	if g00 != m.GammaMax() {
		t.Fatalf("torus gamma at corner %d != max %d", g00, m.GammaMax())
	}
}

func TestStationarySamplerMatchesGamma(t *testing.T) {
	// On a tiny lattice, the empirical position distribution must be
	// proportional to |Γ(x)|. Use a model with few positions and many
	// samples; compare cell frequencies with expected probabilities.
	cfg := Config{N: 2, R: 3.5, MoveRadius: 3, Eps: 1, Density: 2.0 / 36} // side = 6
	m := MustNew(cfg)
	pts := m.LatticePoints()
	total := 0.0
	weights := make([]float64, pts*pts)
	for x := 0; x < pts; x++ {
		for y := 0; y < pts; y++ {
			w := float64(m.GammaAt(x, y))
			weights[x*pts+y] = w
			total += w
		}
	}
	r := rng.New(3)
	counts := make([]int, pts*pts)
	const samples = 60000
	for i := 0; i < samples/2; i++ {
		m.Reset(r.Split())
		// Two nodes per reset: both positions are i.i.d. π.
		for u := 0; u < 2; u++ {
			counts[int(m.pos[u].x)*pts+int(m.pos[u].y)]++
		}
	}
	for idx, w := range weights {
		want := w / total * samples
		sd := math.Sqrt(want)
		if math.Abs(float64(counts[idx])-want) > 6*sd+1 {
			t.Fatalf("position %d: count %d, want %.1f ± %.1f", idx, counts[idx], want, 6*sd)
		}
	}
}

func TestStepStaysWithinMoveRadius(t *testing.T) {
	cfg := Config{N: 50, R: 4, MoveRadius: 2.5, Eps: 0.5}
	m := MustNew(cfg)
	m.Reset(rng.New(5))
	prev := m.Positions(nil)
	for s := 0; s < 20; s++ {
		m.Step()
		cur := m.Positions(nil)
		for u := range cur {
			if d := prev[u].Dist(cur[u]); d > cfg.MoveRadius+1e-9 {
				t.Fatalf("node %d moved %v > r=%v", u, d, cfg.MoveRadius)
			}
		}
		prev = cur
	}
}

func TestStepStaysInBounds(t *testing.T) {
	cfg := Config{N: 64, R: 3, MoveRadius: 2}
	m := MustNew(cfg)
	m.Reset(rng.New(7))
	side := m.Side()
	for s := 0; s < 30; s++ {
		m.Step()
		for u := 0; u < 64; u++ {
			p := m.Position(u)
			if p.X < 0 || p.X > side || p.Y < 0 || p.Y > side {
				t.Fatalf("node %d out of bounds: %+v", u, p)
			}
		}
	}
}

func TestStepUniformOverGamma(t *testing.T) {
	// A single node in a corner: the distribution of its next position
	// must be uniform over Γ(corner).
	cfg := Config{N: 2, R: 2.5, MoveRadius: 2, Eps: 1, Density: 2.0 / 64} // side 8
	m := MustNew(cfg)
	r := rng.New(11)
	m.Reset(r)
	gammaSize := m.GammaAt(0, 0)
	counts := map[point]int{}
	const reps = 30000
	for i := 0; i < reps; i++ {
		m.pos[0] = point{0, 0}
		m.Step()
		counts[m.pos[0]]++
	}
	if len(counts) != gammaSize {
		t.Fatalf("reached %d positions, want |Γ|=%d", len(counts), gammaSize)
	}
	want := float64(reps) / float64(gammaSize)
	for pos, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("position %v: count %d, want %.1f", pos, c, want)
		}
	}
}

func TestZeroMoveRadiusFreezes(t *testing.T) {
	cfg := Config{N: 32, R: 3, MoveRadius: 0}
	m := MustNew(cfg)
	m.Reset(rng.New(13))
	before := m.Positions(nil)
	m.Step()
	after := m.Positions(nil)
	for u := range before {
		if before[u] != after[u] {
			t.Fatalf("node %d moved with r=0", u)
		}
	}
}

// TestGraphAgainstBruteForce is the central correctness test of the
// cell-list snapshot builder: for random configurations (square and
// torus), the built graph must exactly equal the O(n²) distance check.
func TestGraphAgainstBruteForce(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 10; trial++ {
		torus := trial%2 == 1
		cfg := Config{
			N:          60 + r.Intn(60),
			R:          2 + 3*r.Float64(),
			MoveRadius: 2 * r.Float64(),
			Eps:        0.5 + 0.5*r.Float64(),
			Torus:      torus,
		}
		m := MustNew(cfg)
		m.Reset(r.Split())
		for s := 0; s < 3; s++ {
			checkAgainstBruteForce(t, fmt.Sprintf("trial %d (torus=%v) step %d", trial, torus, s), m)
			m.Step()
		}
	}
}

// checkAgainstBruteForce requires m's snapshot to hold exactly the
// pairs the O(n²) distance check finds adjacent, in ascending,
// symmetric rows, with M equal to the pair count.
func checkAgainstBruteForce(t *testing.T, label string, m *Model) {
	t.Helper()
	g := m.Graph()
	n, pairs := m.N(), 0
	for u := 0; u < n; u++ {
		row := g.Neighbors(u)
		if !slices.IsSorted(row) {
			t.Fatalf("%s: row %d not ascending: %v", label, u, row)
		}
		for v := 0; v < n; v++ {
			want := v != u && m.lat.adjacent(m.pos[u].x, m.pos[u].y, m.pos[v].x, m.pos[v].y)
			if _, got := slices.BinarySearch(row, int32(v)); got != want {
				t.Fatalf("%s: %d in row %d = %v, want %v", label, v, u, got, want)
			}
			if want && v > u {
				pairs++
			}
		}
	}
	if g.N() != n || g.M() != pairs {
		t.Fatalf("%s: (n=%d, m=%d), want (n=%d, m=%d)", label, g.N(), g.M(), n, pairs)
	}
}

// FuzzGeometricGraph checks the snapshot, assembled in place at a
// fuzzed worker count, against the O(n²) distance check on generated
// configurations: n from 2 to 401, square and torus, grids from one
// cell to a dozen per axis, the frozen walk (a move radius below ε),
// the lazy walk, every InitMode, 1 to 8 workers and 3 to 8 steps, so
// the reused arrays are rebuilt over snapshots of varying size. The
// seed corpus lives in testdata/fuzz/FuzzGeometricGraph and runs under
// plain go test.
func FuzzGeometricGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, rRaw, moveRaw, epsRaw, mode, par, steps uint8, seed uint64) {
		cfg := Config{
			N:          2 + int(nRaw)%400,
			R:          0.5 + float64(rRaw)/16,
			MoveRadius: float64(moveRaw%32) / 8,
			Eps:        0.25 + 0.75*float64(epsRaw)/255,
			Torus:      mode&1 != 0,
			Init:       InitMode((mode >> 1) % 3),
		}
		if mode&8 != 0 {
			cfg.Jump = 0.25
		}
		cfg.Eps = min(cfg.Eps, cfg.R)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		m := MustNew(cfg)
		m.SetParallelism(1 + int(par)%8)
		m.Reset(rng.New(seed))
		for s := 0; s < 3+int(steps)%6; s++ {
			checkAgainstBruteForce(t, fmt.Sprintf("%+v step %d", cfg, s), m)
			m.Step()
		}
	})
}

func TestAdjacentMatchesPhysicalDistance(t *testing.T) {
	// lat.adjacent must agree with the physical-distance definition
	// d(P_u, P_v) ≤ R on the square.
	cfg := Config{N: 40, R: 2.7, MoveRadius: 1, Eps: 0.7}
	m := MustNew(cfg)
	m.Reset(rng.New(19))
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			want := m.Position(u).Dist(m.Position(v)) <= cfg.R+1e-9
			got := m.lat.adjacent(m.pos[u].x, m.pos[u].y, m.pos[v].x, m.pos[v].y)
			if got != want {
				du := m.Position(u).Dist(m.Position(v))
				if math.Abs(du-cfg.R) > 1e-6 { // ignore exact-boundary float ties
					t.Fatalf("adjacent(%d,%d) = %v, physical dist %v vs R=%v", u, v, got, du, cfg.R)
				}
			}
		}
	}
}

func TestCellOccupancySumsToN(t *testing.T) {
	cfg := Config{N: 500, R: 4, MoveRadius: 2}
	m := MustNew(cfg)
	m.Reset(rng.New(23))
	grid := geom.ClaimOneGrid(m.Side(), cfg.R)
	sum := 0
	for _, c := range m.CellOccupancy(grid) {
		sum += c
	}
	if sum != 500 {
		t.Fatalf("occupancy sums to %d", sum)
	}
}

func TestNearestNodes(t *testing.T) {
	cfg := Config{N: 200, R: 4, MoveRadius: 2}
	m := MustNew(cfg)
	m.Reset(rng.New(29))
	center := geom.Point{X: m.Side() / 2, Y: m.Side() / 2}
	got := m.NearestNodes(center, 20)
	if len(got) != 20 {
		t.Fatalf("NearestNodes returned %d", len(got))
	}
	// Every returned node must be at least as close as every excluded one.
	inSet := map[int]bool{}
	worstIn := 0.0
	for _, u := range got {
		inSet[u] = true
		if d := m.Position(u).Dist2(center); d > worstIn {
			worstIn = d
		}
	}
	for u := 0; u < 200; u++ {
		if !inSet[u] {
			if d := m.Position(u).Dist2(center); d < worstIn-1e-9 {
				t.Fatalf("excluded node %d closer (%v) than included worst (%v)", u, d, worstIn)
			}
		}
	}
	if len(m.NearestNodes(center, 500)) != 200 {
		t.Error("oversized h should clamp to n")
	}
}

func TestInitClustered(t *testing.T) {
	cfg := Config{N: 100, R: 4, MoveRadius: 2, Init: InitClustered}
	m := MustNew(cfg)
	m.Reset(rng.New(31))
	lim := float64(m.LatticePoints()/8) * 1.0
	for u := 0; u < 100; u++ {
		p := m.Position(u)
		if p.X > lim || p.Y > lim {
			t.Fatalf("clustered node %d at %+v beyond limit %v", u, p, lim)
		}
	}
}

func TestInitModeStrings(t *testing.T) {
	if InitStationary.String() != "stationary" || InitUniform.String() != "uniform" ||
		InitClustered.String() != "clustered" {
		t.Error("InitMode labels wrong")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{N: 128, R: 3, MoveRadius: 1.5}
	a, b := MustNew(cfg), MustNew(cfg)
	a.Reset(rng.New(37))
	b.Reset(rng.New(37))
	for s := 0; s < 5; s++ {
		ga, gb := a.Graph(), b.Graph()
		if ga.M() != gb.M() {
			t.Fatalf("graphs diverged at step %d", s)
		}
		a.Step()
		b.Step()
	}
}

func TestStepBeforeResetPanics(t *testing.T) {
	m := MustNew(validCfg(64))
	defer func() {
		if recover() == nil {
			t.Fatal("Step before Reset did not panic")
		}
	}()
	m.Step()
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{N: 1, R: 1}); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func BenchmarkStep(b *testing.B) {
	n := 4096
	radius := 2 * math.Sqrt(math.Log(float64(n)))
	m := MustNew(Config{N: n, R: radius, MoveRadius: radius / 2})
	m.Reset(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkSnapshot(b *testing.B) {
	n := 4096
	radius := 2 * math.Sqrt(math.Log(float64(n)))
	m := MustNew(Config{N: n, R: radius, MoveRadius: radius / 2})
	m.Reset(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
		_ = m.Graph()
	}
}

func TestTorusSeamAdjacency(t *testing.T) {
	// Two nodes across the wrap seam must be adjacent on the torus and
	// non-adjacent on the square with the same coordinates.
	mkMod := func(torus bool) *Model {
		return MustNew(Config{N: 2, R: 3, MoveRadius: 1, Eps: 1,
			Density: 2.0 / 400, Torus: torus}) // side 20
	}
	for _, torus := range []bool{true, false} {
		m := mkMod(torus)
		m.Reset(rng.New(41))
		pts := m.LatticePoints()
		m.pos[0] = point{0, 5}
		m.pos[1] = point{int32(pts - 1), 5}
		m.grid.Moved()
		g := m.Graph()
		// Gap across the seam: square distance pts-1 ≈ 19…20 (never
		// adjacent); torus distance 20-(pts-1) = 1 or 2 (adjacent).
		if torus && !g.HasEdge(0, 1) {
			t.Fatal("torus seam pair not adjacent")
		}
		if !torus && g.HasEdge(0, 1) {
			t.Fatal("square boundary pair wrongly adjacent")
		}
	}
}

func TestStationaryResetIndependentOfHistory(t *testing.T) {
	// Reset must fully re-sample: two resets with the same child seed
	// give identical positions regardless of steps taken in between.
	cfg := Config{N: 64, R: 4, MoveRadius: 2}
	m := MustNew(cfg)
	m.Reset(rng.New(99))
	a := m.Positions(nil)
	for i := 0; i < 7; i++ {
		m.Step()
	}
	m.Reset(rng.New(99))
	b := m.Positions(nil)
	for u := range a {
		if a[u] != b[u] {
			t.Fatal("Reset depends on prior state")
		}
	}
}
