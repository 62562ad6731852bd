package edgemeg

import (
	"math"
	"testing"

	"meg/internal/graph"
	"meg/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	good := Config{N: 10, P: 0.1, Q: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{N: 1, P: 0.1, Q: 0.5},
		{N: 10, P: -0.1, Q: 0.5},
		{N: 10, P: 1.1, Q: 0.5},
		{N: 10, P: 0.1, Q: -1},
		{N: 10, P: 0.1, Q: 2},
		{N: 10, P: 0, Q: 0, Init: InitStationary},
		{N: 10, P: 0.1, Q: 0.5, Init: InitGraph},                        // missing Start
		{N: 10, P: 0.1, Q: 0.5, Init: InitGraph, Start: graph.Empty(9)}, // wrong size
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestPHat(t *testing.T) {
	c := Config{N: 10, P: 0.02, Q: 0.08}
	if got := c.PHat(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("PHat = %v", got)
	}
}

func TestInitModes(t *testing.T) {
	r := rng.New(1)
	empty := MustNew(Config{N: 20, P: 0.1, Q: 0.5, Init: InitEmpty})
	empty.Reset(r.Split())
	if empty.EdgeCount() != 0 || empty.Graph().M() != 0 {
		t.Error("empty init has edges")
	}

	full := MustNew(Config{N: 20, P: 0.1, Q: 0.5, Init: InitComplete})
	full.Reset(r.Split())
	if int64(full.EdgeCount()) != PairCount(20) {
		t.Errorf("complete init has %d edges", full.EdgeCount())
	}

	start := graph.Cycle(20)
	fromG := MustNew(Config{N: 20, P: 0.1, Q: 0.5, Init: InitGraph, Start: start})
	fromG.Reset(r.Split())
	g := fromG.Graph()
	if g.M() != 20 {
		t.Errorf("graph init has %d edges, want 20", g.M())
	}
	for i := 0; i < 20; i++ {
		if !g.HasEdge(i, (i+1)%20) {
			t.Errorf("cycle edge (%d,%d) missing", i, (i+1)%20)
		}
	}
}

func TestInitModeString(t *testing.T) {
	if InitStationary.String() != "stationary" || InitEmpty.String() != "empty" ||
		InitComplete.String() != "complete" || InitGraph.String() != "graph" {
		t.Error("InitMode labels wrong")
	}
	if InitMode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestStationaryMarginal(t *testing.T) {
	// The stationary snapshot is G(n, p̂): the observed edge count must
	// match p̂·C(n,2) within a few standard deviations.
	const n = 400
	cfg := Config{N: n, P: 0.01, Q: 0.09} // p̂ = 0.1
	m := MustNew(cfg)
	r := rng.New(42)
	total := PairCount(n)
	want := cfg.PHat() * float64(total)
	sd := math.Sqrt(float64(total) * cfg.PHat() * (1 - cfg.PHat()))
	var sum float64
	const reps = 30
	for i := 0; i < reps; i++ {
		m.Reset(r.Split())
		sum += float64(m.EdgeCount())
	}
	mean := sum / reps
	if math.Abs(mean-want) > 4*sd/math.Sqrt(reps) {
		t.Fatalf("stationary edge count mean %v, want %v ± %v", mean, want, 4*sd/math.Sqrt(reps))
	}
}

func TestStepPreservesStationarity(t *testing.T) {
	// Starting stationary, the expected edge count is invariant under
	// Step. Average over independent chains after several steps.
	const n = 300
	cfg := Config{N: n, P: 0.02, Q: 0.18} // p̂ = 0.1
	want := cfg.PHat() * float64(PairCount(n))
	r := rng.New(7)
	const reps = 25
	const steps = 10
	var sum float64
	for i := 0; i < reps; i++ {
		m := MustNew(cfg)
		m.Reset(r.Split())
		for s := 0; s < steps; s++ {
			m.Step()
		}
		sum += float64(m.EdgeCount())
	}
	mean := sum / reps
	sd := math.Sqrt(float64(PairCount(n)) * 0.1 * 0.9)
	if math.Abs(mean-want) > 5*sd/math.Sqrt(reps) {
		t.Fatalf("edge count after steps: mean %v, want %v", mean, want)
	}
}

func TestBirthAndDeathRates(t *testing.T) {
	// Measure the one-step transition frequencies of individual pairs
	// and compare with p and q.
	const n = 200
	cfg := Config{N: n, P: 0.03, Q: 0.2}
	m := MustNew(cfg)
	r := rng.New(11)
	m.Reset(r)

	var bornTrials, born, deadTrials, died float64
	const steps = 40
	prev := map[uint64]bool{}
	for _, e := range m.edges {
		prev[e] = true
	}
	for s := 0; s < steps; s++ {
		m.Step()
		cur := map[uint64]bool{}
		for _, e := range m.edges {
			cur[e] = true
		}
		total := float64(PairCount(n))
		present := float64(len(prev))
		bornTrials += total - present
		deadTrials += present
		for e := range cur {
			if !prev[e] {
				born++
			}
		}
		for e := range prev {
			if !cur[e] {
				died++
			}
		}
		prev = cur
	}
	pObs := born / bornTrials
	qObs := died / deadTrials
	if math.Abs(pObs-cfg.P) > 0.15*cfg.P {
		t.Errorf("observed birth rate %v, want %v", pObs, cfg.P)
	}
	if math.Abs(qObs-cfg.Q) > 0.15*cfg.Q {
		t.Errorf("observed death rate %v, want %v", qObs, cfg.Q)
	}
}

func TestStepExtremes(t *testing.T) {
	r := rng.New(13)
	// q = 1: every edge dies each step.
	dieAll := MustNew(Config{N: 30, P: 0, Q: 1, Init: InitComplete})
	dieAll.Reset(r.Split())
	dieAll.Step()
	if dieAll.EdgeCount() != 0 {
		t.Error("q=1 left survivors")
	}
	// p = 1, q = 0: everything is born and nothing dies.
	bornAll := MustNew(Config{N: 30, P: 1, Q: 0, Init: InitEmpty})
	bornAll.Reset(r.Split())
	bornAll.Step()
	if int64(bornAll.EdgeCount()) != PairCount(30) {
		t.Errorf("p=1 produced %d edges", bornAll.EdgeCount())
	}
	// p = 0, q = 0: frozen.
	frozen := MustNew(Config{N: 30, P: 0, Q: 0, Init: InitGraph, Start: graph.Cycle(30)})
	frozen.Reset(r.Split())
	for i := 0; i < 5; i++ {
		frozen.Step()
	}
	if frozen.Graph().M() != 30 {
		t.Error("frozen chain changed")
	}
}

func TestEdgesSortedInvariant(t *testing.T) {
	cfg := Config{N: 150, P: 0.02, Q: 0.3}
	m := MustNew(cfg)
	m.Reset(rng.New(17))
	for s := 0; s < 25; s++ {
		for i := 1; i < len(m.edges); i++ {
			if m.edges[i-1] >= m.edges[i] {
				t.Fatalf("edge list not strictly sorted at step %d", s)
			}
		}
		m.Step()
	}
}

func TestHasEdgeMatchesGraph(t *testing.T) {
	cfg := Config{N: 60, P: 0.05, Q: 0.3}
	m := MustNew(cfg)
	m.Reset(rng.New(19))
	m.Step()
	g := m.Graph()
	for u := 0; u < 60; u++ {
		for v := 0; v < 60; v++ {
			if u == v {
				if m.HasEdge(u, v) {
					t.Fatal("self-loop reported")
				}
				continue
			}
			if m.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) mismatch", u, v)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{N: 100, P: 0.02, Q: 0.2}
	a, b := MustNew(cfg), MustNew(cfg)
	a.Reset(rng.New(23))
	b.Reset(rng.New(23))
	for s := 0; s < 10; s++ {
		if a.EdgeCount() != b.EdgeCount() {
			t.Fatalf("edge counts diverged at step %d", s)
		}
		for i, e := range a.edges {
			if b.edges[i] != e {
				t.Fatalf("edge sets diverged at step %d", s)
			}
		}
		a.Step()
		b.Step()
	}
}

// TestStepAgainstNaiveReference compares the skip-sampling Step with a
// naive per-pair implementation distributionally: over many one-step
// transitions from the same graph, birth and death counts must match in
// mean within sampling error.
func TestStepAgainstNaiveReference(t *testing.T) {
	const n = 80
	const p, q = 0.04, 0.3
	start := graph.Cycle(n) // fixed, known starting graph: 80 edges

	naiveOneStep := func(r *rng.RNG) (int, int) {
		born, died := 0, 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				d := v - u
				isEdge := d == 1 || d == n-1
				if isEdge {
					if r.Bernoulli(q) {
						died++
					}
				} else if r.Bernoulli(p) {
					born++
				}
			}
		}
		return born, died
	}

	r := rng.New(29)
	const reps = 60
	var nBorn, nDied, sBorn, sDied float64
	for i := 0; i < reps; i++ {
		b, d := naiveOneStep(r.Split())
		nBorn += float64(b)
		nDied += float64(d)

		m := MustNew(Config{N: n, P: p, Q: q, Init: InitGraph, Start: start})
		m.Reset(r.Split())
		before := map[uint64]bool{}
		for _, e := range m.edges {
			before[e] = true
		}
		m.Step()
		for _, e := range m.edges {
			if !before[e] {
				sBorn++
			}
		}
		after := map[uint64]bool{}
		for _, e := range m.edges {
			after[e] = true
		}
		for e := range before {
			if !after[e] {
				sDied++
			}
		}
	}
	// Expected births ≈ (C(n,2)-n)·p ≈ 123.2, deaths ≈ n·q = 24.
	meanBornNaive, meanBornSkip := nBorn/reps, sBorn/reps
	meanDiedNaive, meanDiedSkip := nDied/reps, sDied/reps
	if math.Abs(meanBornNaive-meanBornSkip) > 0.15*meanBornNaive {
		t.Errorf("birth means differ: naive %v vs skip %v", meanBornNaive, meanBornSkip)
	}
	if math.Abs(meanDiedNaive-meanDiedSkip) > 0.2*meanDiedNaive {
		t.Errorf("death means differ: naive %v vs skip %v", meanDiedNaive, meanDiedSkip)
	}
}

func TestSampleGNP(t *testing.T) {
	r := rng.New(31)
	g := SampleGNP(300, 0.05, r)
	if g.N() != 300 {
		t.Fatal("wrong node count")
	}
	want := 0.05 * float64(PairCount(300))
	sd := math.Sqrt(float64(PairCount(300)) * 0.05 * 0.95)
	if math.Abs(float64(g.M())-want) > 6*sd {
		t.Fatalf("G(n,p) edges = %d, want ≈ %v", g.M(), want)
	}
	if SampleGNP(50, 0, r).M() != 0 {
		t.Error("G(n,0) has edges")
	}
	if int64(SampleGNP(20, 1, r).M()) != PairCount(20) {
		t.Error("G(n,1) not complete")
	}
}

func TestStepBeforeResetPanics(t *testing.T) {
	m := MustNew(Config{N: 10, P: 0.1, Q: 0.5})
	defer func() {
		if recover() == nil {
			t.Fatal("Step before Reset did not panic")
		}
	}()
	m.Step()
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{N: 1, P: 0.1, Q: 0.1}); err == nil {
		t.Fatal("New accepted invalid config")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{N: 1, P: 0.1, Q: 0.1})
}

func BenchmarkStepSparse(b *testing.B) {
	cfg := Config{N: 4096, P: 0.002 * 0.5 / (1 - 0.002), Q: 0.5}
	m := MustNew(cfg)
	m.Reset(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkStepLowChurn is the regime the churn-proportional step
// targets: perfbench's edge-lowchurn-8k chain (n = 8192, p̂ = 0.5·ln n/n,
// q = 0.002), where a round flips ~70 of ~18k edges.
func BenchmarkStepLowChurn(b *testing.B) {
	const n, q = 8192, 0.002
	pHat := 0.5 * math.Log(n) / n
	m := MustNew(Config{N: n, P: q * pHat / (1 - pHat), Q: q})
	m.Reset(rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepDelta()
	}
}

// TestStepAllocatesNothing pins the steady state: once the buffers have
// grown, StepDelta allocates nothing, on one pair-space shard and on
// two.
func TestStepAllocatesNothing(t *testing.T) {
	for _, n := range []int{1024, 3000} {
		m := MustNew(Config{N: n, P: 1e-4, Q: 0.05})
		m.Reset(rng.New(5))
		for i := 0; i < 100; i++ {
			m.StepDelta()
		}
		if a := testing.AllocsPerRun(100, func() { m.StepDelta() }); a != 0 {
			t.Errorf("n=%d (%d shards): %v allocations per StepDelta", n, len(m.shards), a)
		}
	}
}

// TestFreshModelAllocations bounds what a fresh model allocates for
// New + Reset + 3 × (Step + Graph) at q = ½, the shape of a campaign
// trial: every buffer is presized from its Bernoulli count, so none
// grows by append. Growing them by append, the two cases made 125 and
// 5681 allocations. The counts hold for plain builds only.
func TestFreshModelAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, c := range []struct {
		n     int
		mult  float64 // p̂ = mult·ln n/n
		max   float64
		short bool
	}{{1024, 4, 60, true}, {65536, 2, 600, false}} {
		if testing.Short() && !c.short {
			continue
		}
		pHat := c.mult * math.Log(float64(c.n)) / float64(c.n)
		cfg := Config{N: c.n, P: 0.5 * pHat / (1 - pHat), Q: 0.5}
		a := testing.AllocsPerRun(1, func() {
			m := MustNew(cfg)
			m.Reset(rng.New(3))
			for i := 0; i < 3; i++ {
				m.Step()
				m.Graph()
			}
		})
		if a > c.max {
			t.Errorf("n=%d: %v allocations, want ≤ %v", c.n, a, c.max)
		}
	}
}

// BenchmarkStepHalf is serve-mix's edge chain: n = 1024, p̂ = 4·ln n/n,
// q = ½, where a round redraws about half the edges.
func BenchmarkStepHalf(b *testing.B) {
	const n = 1024
	pHat := 4 * math.Log(n) / n
	m := MustNew(Config{N: n, P: 0.5 * pHat / (1 - pHat), Q: 0.5})
	m.Reset(rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkResetStationary samples edge-sparse-64k's stationary G_0
// (n = 65536, p̂ = 2·ln n/n, q = ½) into a fresh model, as every trial
// of a campaign does.
func BenchmarkResetStationary(b *testing.B) {
	const n = 65536
	pHat := 2 * math.Log(n) / n
	cfg := Config{N: n, P: 0.5 * pHat / (1 - pHat), Q: 0.5}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustNew(cfg).Reset(r)
	}
}

func BenchmarkGNPSample(b *testing.B) {
	r := rng.New(1)
	n := 4096
	pHat := 4 * math.Log(float64(n)) / float64(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SampleGNP(n, pHat, r)
	}
}

// naiveFullStep advances the chain with one Bernoulli draw per pair —
// the O(n²) reference the skip-sampling Step replaces. Used only by the
// ablation benchmark.
func naiveFullStep(m *Model, r *rng.RNG) {
	n := m.cfg.N
	var next []uint64
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			key := packPair(u, v)
			present := i < len(m.edges) && m.edges[i] == key
			if present {
				i++
				if !r.Bernoulli(m.cfg.Q) {
					next = append(next, key)
				}
			} else if r.Bernoulli(m.cfg.P) {
				next = append(next, key)
			}
		}
	}
	m.edges = next
	m.dirty = true
}

// BenchmarkStepAblationSkip and BenchmarkStepAblationNaive quantify the
// design choice called out in DESIGN.md: geometric skip sampling makes
// the per-step cost O(|E| + p·n²_expected) instead of Θ(n²).
func BenchmarkStepAblationSkip(b *testing.B) {
	n := 2048
	pHat := 4 * math.Log(float64(n)) / float64(n)
	m := MustNew(Config{N: n, P: 0.5 * pHat / (1 - pHat), Q: 0.5})
	m.Reset(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkStepAblationNaive(b *testing.B) {
	n := 2048
	pHat := 4 * math.Log(float64(n)) / float64(n)
	m := MustNew(Config{N: n, P: 0.5 * pHat / (1 - pHat), Q: 0.5})
	r := rng.New(1)
	m.Reset(r.Split())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveFullStep(m, r)
	}
}

// TestTimeIndependentSpecialCase checks the q = 1−p special case the
// paper singles out (Section 1): the chain degenerates to independent
// G(n,p) snapshots, so the indicator of an edge at time t carries no
// information about time t+1. We estimate the conditional probabilities
// P(edge at t+1 | edge at t) and P(edge at t+1 | no edge at t): both
// must equal p.
func TestTimeIndependentSpecialCase(t *testing.T) {
	const n = 120
	const p = 0.3
	cfg := Config{N: n, P: p, Q: 1 - p}
	m := MustNew(cfg)
	r := rng.New(77)
	m.Reset(r)
	var bothOn, onAtT, onAtTplus1FromOff, offAtT float64
	prev := map[uint64]bool{}
	for _, e := range m.edges {
		prev[e] = true
	}
	const steps = 50
	total := float64(PairCount(n))
	for s := 0; s < steps; s++ {
		m.Step()
		cur := map[uint64]bool{}
		for _, e := range m.edges {
			cur[e] = true
		}
		onAtT += float64(len(prev))
		offAtT += total - float64(len(prev))
		for e := range cur {
			if prev[e] {
				bothOn++
			} else {
				onAtTplus1FromOff++
			}
		}
		prev = cur
	}
	pOnGivenOn := bothOn / onAtT
	pOnGivenOff := onAtTplus1FromOff / offAtT
	if d := pOnGivenOn - pOnGivenOff; d > 0.02 || d < -0.02 {
		t.Fatalf("time-dependence detected: P(on|on)=%v vs P(on|off)=%v", pOnGivenOn, pOnGivenOff)
	}
	if pOnGivenOn < p-0.02 || pOnGivenOn > p+0.02 {
		t.Fatalf("P(on|on) = %v, want ≈ %v", pOnGivenOn, p)
	}
}
