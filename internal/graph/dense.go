package graph

import (
	"meg/internal/bitset"
	"meg/internal/par"
)

// DenseRows is a bit-matrix export of a snapshot's adjacency: row u is
// a packed bitmap over [0, n) with bit v set iff {u, v} is an edge.
// Building it costs O(n²/64 + m) time and n²/64 bits of memory, so it
// pays off only when one snapshot serves many row queries — e.g. the
// static-graph baseline, where flooding re-reads the same snapshot every
// round and the dense pull kernel can test "does u have an informed
// neighbor?" with a word-parallel intersection instead of a CSR scan.
type DenseRows struct {
	n      int
	stride int // words per row
	words  []uint64
}

// NewDenseRows materializes the dense adjacency rows of g. Rows are
// filled per contiguous node block on a pool of workers, each writing
// only its own rows, so the matrix is byte-identical for every worker
// count; workers <= 1 (or a graph under 256 nodes) builds in one loop.
func NewDenseRows(g *Graph, workers int) *DenseRows {
	stride := (g.n + 63) / 64
	d := &DenseRows{n: g.n, stride: stride, words: make([]uint64, g.n*stride)}
	fill := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := d.words[u*stride : (u+1)*stride]
			for _, v := range g.Neighbors(u) {
				row[v>>6] |= 1 << (uint(v) & 63)
			}
		}
	}
	if workers <= 1 || g.n < 256 {
		fill(0, g.n)
		return d
	}
	par.ForBlocks(workers, g.n, func(_, lo, hi int) { fill(lo, hi) })
	return d
}

// N returns the node count.
func (d *DenseRows) N() int { return d.n }

// Row returns u's adjacency bitmap as (n+63)/64 words. The slice
// aliases the matrix storage and must not be modified.
func (d *DenseRows) Row(u int) []uint64 {
	return d.words[u*d.stride : (u+1)*d.stride]
}

// Intersects reports whether u has at least one neighbor in s: a
// word-parallel any-AND of u's row against the set, with early exit on
// the first hit. s must be over the universe [0, n).
func (d *DenseRows) Intersects(u int, s *bitset.Set) bool {
	if s.Len() != d.n {
		panic("graph: Intersects universe mismatch")
	}
	words := s.Words()
	for i, w := range d.Row(u) {
		if w&words[i] != 0 {
			return true
		}
	}
	return false
}
