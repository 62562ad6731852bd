package rng

import (
	"math"
	"testing"
)

// These golden vectors pin the counter-stream contract explicitly.
// Every byte-identical promise in this repository — P1≡P8 worker-count
// equivalence, delta-vs-full snapshot equality, the bench checksum
// gates, the content-addressed result cache — bottoms out in Mix/At
// producing exactly these words for a given key. Until now that
// contract was enforced only transitively (a change here would surface
// as a bench checksum divergence three layers up); these tests fail at
// the source. An intentional algorithm change must update the vectors
// AND bump the spec algo revisions (see internal/spec), or every
// pre-existing cache entry goes stale silently.

func TestMixGoldenVectors(t *testing.T) {
	cases := []struct {
		words []uint64
		want  uint64
	}{
		{[]uint64{}, 0x6a09e667f3bcc909},
		{[]uint64{0x0}, 0x63cfc62a2b097592},
		{[]uint64{0x1}, 0x1ac046dda8e86e2a},
		{[]uint64{0x1, 0x2}, 0x8059eb3418e61d41},
		{[]uint64{0x1, 0x2, 0x3}, 0xac353cecc6b8f974},
		{[]uint64{0x2, 0x1, 0x3}, 0x8026ab7ee2748dfa},
		{[]uint64{0xdeadbeef, 0x2a, 0x7}, 0x4712091d980e13f},
		{[]uint64{0xffffffffffffffff, 0xffffffffffffffff}, 0x96c2a81c08c12894},
	}
	for _, c := range cases {
		if got := Mix(c.words...); got != c.want {
			t.Errorf("Mix(%#x) = %#x, want %#x", c.words, got, c.want)
		}
	}
	// Mix must be order-sensitive: (1,2,3) and (2,1,3) key different
	// streams (the vectors above differ), and word-count-sensitive.
	if Mix(1, 2) == Mix(2, 1) {
		t.Error("Mix is order-insensitive: Mix(1,2) == Mix(2,1)")
	}
	if Mix(1) == Mix(1, 0) {
		t.Error("Mix ignores trailing zero words: Mix(1) == Mix(1,0)")
	}
}

// atGolden holds the first words of the stream keyed (base, id, t).
var atGolden = []struct {
	base, id, t uint64
	want        [3]uint64
}{
	{1, 0, 0, [3]uint64{0xee57df1d7d5564bd, 0xca3db7fd0dcb10e6, 0x5e00df4c3db5d2c0}},
	{1, 0, 1, [3]uint64{0xcd9fdca73086c624, 0xa08cb8ef37723418, 0x2616d612f919cdf7}},
	{1, 1, 0, [3]uint64{0xb645bc45790b0ac2, 0xe9ae28c09ac9f2c3, 0x2ed9a648b9d92bb0}},
	{2, 0, 0, [3]uint64{0x7c85675aed66c046, 0x7073509a1ff14a73, 0x7d5eed68bfa7f929}},
	{11259375, 123456, 789, [3]uint64{0x13a44dd4cd511493, 0xaafdf064fadd162a, 0xfab27095306147b2}},
}

func TestAtGoldenVectors(t *testing.T) {
	for _, c := range atGolden {
		// The per-run Streams derivation must give At's words too.
		for _, r := range []RNG{At(c.base, c.id, c.t), StreamsOf(c.base).At(c.id, c.t)} {
			for i, want := range c.want {
				if got := r.Uint64(); got != want {
					t.Errorf("At(%d,%d,%d) word %d = %#x, want %#x", c.base, c.id, c.t, i, got, want)
				}
			}
		}
	}
	// At must agree with seeding from Mix — the documented definition.
	a := At(7, 8, 9)
	var m RNG
	m.Seed(Mix(7, 8, 9))
	for i := 0; i < 16; i++ {
		if a.Uint64() != m.Uint64() {
			t.Fatalf("At(7,8,9) diverges from Seed(Mix(7,8,9)) at word %d", i)
		}
	}
}

// FuzzStreams checks StreamsOf(b).At(id, t) against the documented
// definition, Seed(Mix(b, id, t)), over several draws and for keys
// derived from one Streams value in turn.
func FuzzStreams(f *testing.F) {
	for _, c := range atGolden {
		f.Add(c.base, c.id, c.t)
	}
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, base, id, tt uint64) {
		s := StreamsOf(base)
		for k := uint64(0); k < 3; k++ {
			got := s.At(id+k, tt^k)
			var want RNG
			want.Seed(Mix(base, id+k, tt^k))
			for i := 0; i < 8; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("StreamsOf(%#x).At(%#x, %#x) word %d = %#x, Seed(Mix(…)) gives %#x", base, id+k, tt^k, i, g, w)
				}
			}
		}
	})
}

func TestNewGoldenVectors(t *testing.T) {
	cases := []struct {
		seed uint64
		want [4]uint64
	}{
		{0x0, [4]uint64{0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc, 0x2eebf8c3bbe5e1a}},
		{0x1, [4]uint64{0xcfc5d07f6f03c29b, 0xbf424132963fe08d, 0x19a37d5757aaf520, 0xbf08119f05cd56d6}},
		{0x2a, [4]uint64{0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8}},
		{0x9e3779b97f4a7c15, [4]uint64{0x58f24f57e97e3f07, 0x5f9a9d6f9a653406, 0x6534ee33d1fd29d7, 0x2e89656c364e9184}},
	}
	for _, c := range cases {
		r := New(c.seed)
		for i, want := range c.want {
			if got := r.Uint64(); got != want {
				t.Errorf("New(%#x) word %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}

func TestSeedForGoldenVectors(t *testing.T) {
	cases := []struct {
		base uint64
		idx  int
		want uint64
	}{
		{0x1, 0, 0xbeeb8da1658eec67},
		{0x1, 1, 0xf893a2eefb32555e},
		{0x1, 2, 0x71c18690ee42c90b},
		{0x63, 0, 0x81ab918879d69a4},
		{0xfeedface, 1000000, 0x4b3391b9d99ff581},
	}
	for _, c := range cases {
		if got := SeedFor(c.base, c.idx); got != c.want {
			t.Errorf("SeedFor(%#x, %d) = %#x, want %#x", c.base, c.idx, got, c.want)
		}
	}
}

func TestDerivedSamplerGoldenVectors(t *testing.T) {
	// The samplers sit on Uint64, so pinning a short derived stream
	// guards their transformation arithmetic (53-bit float scaling,
	// Lemire rejection) as well.
	r := New(7)
	wantFloats := []float64{0.055360436478333108, 0.17211585444811772, 0.71757612835865936}
	for i, want := range wantFloats {
		if got := r.Float64(); math.Abs(got-want) > 0 {
			t.Errorf("New(7) Float64 #%d = %.17g, want %.17g", i, got, want)
		}
	}
	wantInts := []int{42, 96, 46, 72, 32}
	for i, want := range wantInts {
		if got := r.Intn(100); got != want {
			t.Errorf("New(7) Intn(100) #%d = %d, want %d", i, got, want)
		}
	}
}
