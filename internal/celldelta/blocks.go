package celldelta

import (
	"slices"
	"sort"

	"meg/internal/par"
)

// Blocks is the merged 3×3 candidate index over a cell list: for every
// cell, the ascending node list of its whole block. Built once per
// snapshot, it lets an edge sweep binary-search straight to a node's
// v > u suffix instead of filtering (and sorting) the block per node —
// the sweep touches half the candidates and emits rows already in the
// canonical ascending order graph.Mutable merges against. The zero
// value is ready; buffers persist across rebuilds.
type Blocks struct {
	offs []int32
	nbhd []int32
}

// Build recomputes the index from a cell list in the given layout
// (starts/order in counting-sort form: within a cell, node ids
// ascend). Each cell's merged segment is sorted by node id, so the
// candidate lists do not depend on the layout, and per-cell segments
// are disjoint, so the parallel rebuild is byte-identical for every
// worker count.
func (b *Blocks) Build(mo *Morton, starts, order []int32, workers int) {
	cells := mo.k * mo.k
	if len(b.offs) < cells+1 {
		b.offs = make([]int32, cells+1)
	}
	offs := b.offs
	offs[0] = 0
	for c := range cells {
		size := int32(0)
		for _, bc := range mo.Block(int32(c)) {
			size += starts[bc+1] - starts[bc]
		}
		offs[c+1] = offs[c] + size
	}
	total := int(offs[cells])
	if cap(b.nbhd) < total {
		b.nbhd = make([]int32, total)
	}
	nbhd := b.nbhd[:total]
	b.nbhd = nbhd
	par.ForBlocks(workers, cells, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			seg := nbhd[offs[c]:offs[c+1]]
			i := 0
			block := mo.Block(int32(c))
			for _, bc := range block {
				i += copy(seg[i:], order[starts[bc]:starts[bc+1]])
			}
			if len(block) > 1 { // one cell's members already ascend
				slices.Sort(seg)
			}
		}
	})
}

// After returns the ascending candidates v > u of the given cell's
// block. The slice aliases the index and is valid until the next Build.
func (b *Blocks) After(cell int32, u int) []int32 {
	list := b.nbhd[b.offs[cell]:b.offs[cell+1]]
	i := sort.Search(len(list), func(i int) bool { return list[i] > int32(u) })
	return list[i:]
}
