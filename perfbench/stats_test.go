package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 900}, // p90 leaves 100 beyond
		{100, 90},   // p90 leaves exactly ten beyond
		{60, 50},    // fewer than 100: the 11th-slowest, p83.3
		{11, 1},     // the smallest still has ten beyond
		{10, 0},     // no percentile has ten beyond
		{0, 0},
	} {
		if got := tailRank(c.n, 90, 10); got != c.want {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted input
	}
	l := summarize(xs)
	if l.n != 40 || l.p50 != 19 || l.tail != 29 || l.tailPct != 75 || l.beyond != 10 {
		t.Errorf("summarize = %+v, want n=40 p50=19 tail=29 at p75 with 10 beyond", l)
	}
	if xs[0] != 39 {
		t.Error("summarize reordered its input")
	}
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if l := summarize(big); l.tail != 180 || l.tailPct != 90 || l.beyond != 20 {
		t.Errorf("summarize(1..200) = %+v, want tail=180 at p90 with 20 beyond", l)
	}
	if l := summarize([]float64{5, 7}); l.tail != 7 || l.tailPct != 100 || l.beyond != 0 {
		t.Errorf("summarize of two samples = %+v, want the maximum", l)
	}
}
