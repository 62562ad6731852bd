package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/64 identical outputs", same)
	}
}

func TestSeedReset(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after re-Seed output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling children started identically")
	}
}

func TestSplitN(t *testing.T) {
	parent := New(5)
	kids := parent.SplitN(10)
	if len(kids) != 10 {
		t.Fatalf("SplitN returned %d children", len(kids))
	}
	seen := map[uint64]bool{}
	for _, k := range kids {
		v := k.Uint64()
		if seen[v] {
			t.Fatal("two children produced the same first output")
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sum2 += f * f
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈ 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("variance = %v, want ≈ 1/12", variance)
	}
}

func TestIntnRangeProperty(t *testing.T) {
	r := New(17)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(23)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates too far from %v", b, c, want)
		}
	}
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63n(t *testing.T) {
	r := New(29)
	big := int64(1) << 40
	for i := 0; i < 1000; i++ {
		v := r.Int63n(big)
		if v < 0 || v >= big {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(31)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(37)
	const n = 100000
	const p = 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Errorf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(43)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("Shuffle produced duplicate: %v", xs)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(47)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 3}, {10, 10}, {1000, 5}, {100, 90}} {
		s := r.Sample(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("Sample(%d,%d) returned %d values", tc.n, tc.k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("Sample(%d,%d) invalid: %v", tc.n, tc.k, s)
			}
			seen[v] = true
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestGeometricMean(t *testing.T) {
	r := New(53)
	const p = 0.2
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // failures before first success
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("Geometric(%v) mean = %v, want ≈ %v", p, mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(59)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

// TestGeometricLogMatchesGeometric checks that the hoisted-log draw
// equals Geometric draw for draw and leaves the stream at the same
// place, and that p = 1 (l = −Inf) returns 0 without drawing.
func TestGeometricLogMatchesGeometric(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-6, 0.3, 0.5, 1 - 1e-12, 1} {
		a, b := New(67), New(67)
		l := math.Log1p(-p)
		for i := 0; i < 1000; i++ {
			if g, h := a.Geometric(p), b.GeometricLog(l); g != h {
				t.Fatalf("p=%g draw %d: Geometric %d, GeometricLog %d", p, i, g, h)
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("p=%g: streams diverge after the draws", p)
		}
	}
	r, fresh := New(71), New(71)
	if g, h := r.Geometric(1), r.GeometricLog(math.Inf(-1)); g != 0 || h != 0 {
		t.Fatalf("p = 1: Geometric %d, GeometricLog %d, want 0", g, h)
	}
	if r.Uint64() != fresh.Uint64() {
		t.Fatal("p = 1 drew from the stream")
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestBinomialMoments(t *testing.T) {
	r := New(61)
	const trials = 20000
	const n = 100
	const p = 0.3
	var sum, sum2 float64
	for i := 0; i < trials; i++ {
		b := float64(r.Binomial(n, p))
		sum += b
		sum2 += b * b
	}
	mean := sum / trials
	variance := sum2/trials - mean*mean
	if math.Abs(mean-n*p) > 0.5 {
		t.Errorf("Binomial mean = %v, want ≈ %v", mean, n*p)
	}
	if math.Abs(variance-n*p*(1-p)) > 2 {
		t.Errorf("Binomial variance = %v, want ≈ %v", variance, n*p*(1-p))
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(67)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(50, 0); got != 0 {
		t.Errorf("Binomial(50, 0) = %d", got)
	}
	if got := r.Binomial(50, 1); got != 50 {
		t.Errorf("Binomial(50, 1) = %d", got)
	}
}

func TestBinomialHighP(t *testing.T) {
	r := New(71)
	const trials = 20000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Binomial(100, 0.9))
	}
	if mean := sum / trials; math.Abs(mean-90) > 0.5 {
		t.Errorf("Binomial(100, .9) mean = %v", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(73)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("ExpFloat64 mean = %v, want ≈ 1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(79)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("NormFloat64 mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("NormFloat64 variance = %v", variance)
	}
}

func TestSeedForDeterministic(t *testing.T) {
	if SeedFor(1, 5) != SeedFor(1, 5) {
		t.Fatal("SeedFor is not deterministic")
	}
	if SeedFor(1, 5) == SeedFor(1, 6) {
		t.Fatal("SeedFor collision between adjacent indices")
	}
	if SeedFor(1, 5) == SeedFor(2, 5) {
		t.Fatal("SeedFor collision between bases")
	}
}

func TestUint64nUniformSmall(t *testing.T) {
	r := New(83)
	counts := make([]int, 3)
	const n = 90000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(3)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/3.0) > 5*math.Sqrt(n/3.0) {
			t.Errorf("bucket %d count %d", b, c)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(12345)
	}
	_ = sink
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += r.Geometric(0.01)
	}
	_ = sink
}

func BenchmarkGeometricLog(b *testing.B) {
	r := New(1)
	l := math.Log1p(-0.01)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += r.GeometricLog(l)
	}
	_ = sink
}
