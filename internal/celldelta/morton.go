package celldelta

import (
	"slices"
)

// Morton is a cache-aware cell indexing for the k×k grid: cells are
// numbered along the Z-order (Morton) curve instead of row-major, so
// the cells of a 3×3 block — and with them the per-cell segments the
// Blocks index gathers and the counting-sort runs the grid builds —
// sit near each other in memory. At 512k nodes the grid is ~700 cells
// per axis and a vertical block neighbor would be ~2800 node ids away
// row-major; under Z-order it is usually within the same few cache
// lines.
//
// Because k is not generally a power of two, raw interleaved codes
// have holes; Morton ranks them into a dense [0, k²) numbering and
// keeps both directions as lookup tables. Everything downstream —
// within-cell ascending node order, block-segment sorting, the
// u-ascending edge sweep — is independent of how cells are numbered,
// so the layout never reaches a snapshot or a spread.
//
// Morton also keeps every cell's 3×3 block (wrapping on the torus) as
// a precomputed list of ranks. A 1×1 grid's only block is its one
// cell.
type Morton struct {
	k      int
	index  []int32 // row-major cy·k+cx → dense Z-order rank
	cellX  []int32 // rank → cx
	cellY  []int32 // rank → cy
	bstart []int32 // rank → start of its block in bcells
	bcells []int32 // concatenated 3×3 blocks, as ranks
}

// NewMorton builds the dense Z-order numbering of a k×k grid and the
// 3×3 block of every cell. k must be 1 or at least 3, so that a block's
// nine cells are distinct.
func NewMorton(k int, torus bool) *Morton {
	if k < 1 || k == 2 {
		panic("celldelta: a grid needs 1 or at least 3 cells per axis")
	}
	cells := k * k
	ranks := make([]int32, cells)
	codes := make([]uint64, cells)
	for c := range ranks {
		ranks[c] = int32(c)
		codes[c] = spreadBits(uint64(c%k)) | spreadBits(uint64(c/k))<<1
	}
	slices.SortFunc(ranks, func(a, b int32) int {
		if codes[a] < codes[b] {
			return -1
		}
		return 1 // codes are distinct: one per grid cell
	})
	mo := &Morton{
		k:      k,
		index:  make([]int32, cells),
		cellX:  make([]int32, cells),
		cellY:  make([]int32, cells),
		bstart: make([]int32, cells+1),
	}
	for r, c := range ranks {
		mo.index[c] = int32(r)
		mo.cellX[r] = c % int32(k)
		mo.cellY[r] = c / int32(k)
	}
	if k == 1 {
		mo.bstart[1] = 1
		mo.bcells = []int32{0}
		return mo
	}
	mo.bcells = make([]int32, 0, 9*cells)
	for r := range cells {
		cx, cy := int(mo.cellX[r]), int(mo.cellY[r])
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y := cx+dx, cy+dy
				if torus {
					x, y = (x+k)%k, (y+k)%k
				} else if x < 0 || x >= k || y < 0 || y >= k {
					continue
				}
				mo.bcells = append(mo.bcells, mo.index[y*k+x])
			}
		}
		mo.bstart[r+1] = int32(len(mo.bcells))
	}
	return mo
}

// Cell returns the dense Z-order index of grid coordinates (cx, cy).
func (mo *Morton) Cell(cx, cy int) int32 { return mo.index[cy*mo.k+cx] }

// Block returns the ranks of the cells in c's 3×3 block, c included.
// The slice aliases the layout and must not be modified.
func (mo *Morton) Block(c int32) []int32 { return mo.bcells[mo.bstart[c]:mo.bstart[c+1]] }

// spreadBits spaces the low 32 bits of x one position apart (the
// classic part1by1 spread), the x half of a 64-bit Morton code.
func spreadBits(x uint64) uint64 {
	x &= 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
