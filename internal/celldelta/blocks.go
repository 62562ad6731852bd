package celldelta

import "slices"

// Blocks is the merged 3×3 candidate index over a cell list: for every
// cell, the ascending node list of its whole block. Built once per
// snapshot, it lets an edge sweep binary-search straight to a node's
// v > u suffix instead of filtering (and sorting) the block per node —
// the sweep touches half the candidates and emits upper rows already
// in ascending order. The zero value is ready; buffers persist across
// rebuilds.
type Blocks struct {
	offs []int32
	nbhd []int32
	cur  []int32 // per cell: the fill cursor of its list
}

// Build recomputes the index from a cell list: starts in counting-sort
// form (the members of cell c number starts[c+1]−starts[c]) and
// nodeCell[u], the cell of node u. Blocks are symmetric — c lies in the
// block of every cell in its own block — so one pass over the nodes in
// ascending id appends each node to the nine lists that contain its
// cell, and every list comes out ascending with no sort. The lists do
// not depend on how the cells are numbered.
func (b *Blocks) Build(mo *Morton, starts, nodeCell []int32) {
	cells := mo.k * mo.k
	if len(b.offs) < cells+1 {
		b.offs = make([]int32, cells+1)
		b.cur = make([]int32, cells)
	}
	offs, cur := b.offs, b.cur[:cells]
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
	copy(cur, offs[:cells])
	for u, c := range nodeCell {
		for _, bc := range mo.Block(c) {
			nbhd[cur[bc]] = int32(u)
			cur[bc]++
		}
	}
}

// After returns the ascending candidates v > u of the given cell's
// block. The slice aliases the index and is valid until the next Build.
func (b *Blocks) After(cell int32, u int) []int32 {
	list := b.nbhd[b.offs[cell]:b.offs[cell+1]]
	i, _ := slices.BinarySearch(list, int32(u)+1)
	return list[i:]
}
