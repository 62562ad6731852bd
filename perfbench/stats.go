package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond the tail percentile, so
// that no single slow op sets the reported tail. tailPct caps the tail
// percentile: the highest percentile with minBeyond samples beyond it
// climbs towards the maximum as a run holds more ops, and there a few
// host stalls decide it.
const (
	minBeyond = 10
	tailPct   = 90
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// the ascending slice sorted: the value at rank ⌈p/100·n⌉.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// median is the nearest-rank 50th percentile of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// tailRank returns the nearest rank, among n ascending samples, of the
// tail percentile: the highest percentile at or below maxPct that has at
// least minBeyond samples beyond it, i.e. min(⌈maxPct/100·n⌉, n−minBeyond).
// It returns 0 when n is too small to have any such percentile.
func tailRank(n int, maxPct float64, minBeyond int) int {
	k := int(math.Ceil(maxPct / 100 * float64(n)))
	return max(min(k, n-minBeyond), 0)
}

// latency summarizes per-op latencies in milliseconds. beyond is how
// many samples lie beyond the tail percentile; it is 0 when a run has too
// few samples for any, and the tail falls back to the maximum.
type latency struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
	beyond  int
}

func summarize(ms []float64) latency {
	s := sortedCopy(ms)
	l := latency{n: len(s), p50: percentile(s, 50)}
	if k := tailRank(len(s), tailPct, minBeyond); k > 0 {
		l.tail, l.tailPct, l.beyond = s[k-1], 100*float64(k)/float64(len(s)), len(s)-k
	} else if len(s) > 0 {
		l.tail, l.tailPct = s[len(s)-1], 100
	}
	return l
}

// usage is a snapshot of the process counters the end-to-end metrics
// are differences of.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system
	alloc uint64        // cumulative heap bytes allocated
}

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{wall: time.Now(), cpu: cpu, alloc: heapAllocs()}
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
