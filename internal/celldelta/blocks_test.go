package celldelta

import (
	"slices"
	"testing"

	"meg/internal/rng"
)

// blockCoords returns the (cx, cy) coordinates of c's block, sorted
// row-major.
func blockCoords(mo *Morton, c int32) [][2]int32 {
	var out [][2]int32
	for _, b := range mo.Block(c) {
		out = append(out, [2]int32{mo.cellX[b], mo.cellY[b]})
	}
	slices.SortFunc(out, func(a, b [2]int32) int {
		if a[1] != b[1] {
			return int(a[1] - b[1])
		}
		return int(a[0] - b[0])
	})
	return out
}

func TestForBlockCellsBounded(t *testing.T) {
	mo := NewMorton(5, false)
	// Interior cell: all nine distinct neighbors.
	got := blockCoords(mo, mo.Cell(2, 2))
	var want [][2]int32
	for y := int32(1); y <= 3; y++ {
		for x := int32(1); x <= 3; x++ {
			want = append(want, [2]int32{x, y})
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("interior block = %v, want %v", got, want)
	}
	// Corner cell without wrap: only the 2×2 quadrant.
	got = blockCoords(mo, mo.Cell(0, 0))
	if want := [][2]int32{{0, 0}, {1, 0}, {0, 1}, {1, 1}}; !slices.Equal(got, want) {
		t.Fatalf("corner block = %v, want %v", got, want)
	}
	// A one-cell grid's block is the cell itself, wrapping or not.
	for _, torus := range []bool{false, true} {
		if got := NewMorton(1, torus).Block(0); !slices.Equal(got, []int32{0}) {
			t.Fatalf("torus=%v: 1×1 block = %v, want [0]", torus, got)
		}
	}
}

func TestForBlockCellsTorus(t *testing.T) {
	k := 4
	mo := NewMorton(k, true)
	cells := mo.Block(mo.Cell(0, 0))
	if len(cells) != 9 {
		t.Fatalf("torus corner block has %d cells, want 9", len(cells))
	}
	seen := map[[2]int32]bool{}
	for _, c := range cells {
		if c < 0 || int(c) >= k*k {
			t.Fatalf("torus block cell %d out of range", c)
		}
		xy := [2]int32{mo.cellX[c], mo.cellY[c]}
		if seen[xy] {
			t.Fatalf("torus block repeats cell %v", xy)
		}
		seen[xy] = true
	}
	// Wrapping from the corner must reach the opposite edges.
	for _, xy := range [][2]int32{{3, 3}, {3, 0}, {0, 3}} {
		if !seen[xy] {
			t.Fatalf("torus block from (0,0) misses wrapped cell %v", xy)
		}
	}
}

// cellStarts is the counting-sort form of a cell assignment: the
// members of cell c number starts[c+1]−starts[c].
func cellStarts(nodeCell []int32, cells int) []int32 {
	starts := make([]int32, cells+1)
	for _, c := range nodeCell {
		starts[c+1]++
	}
	for c := 1; c <= cells; c++ {
		starts[c] += starts[c-1]
	}
	return starts
}

// near reports whether cells a and b are at most one cell apart along
// both axes (wrapping on the torus), from their coordinates.
func near(mo *Morton, torus bool, a, b int32) bool {
	k := int32(mo.k)
	d := func(p, q int32) int32 {
		x := max(p-q, q-p)
		if torus {
			x = min(x, k-x)
		}
		return x
	}
	return d(mo.cellX[a], mo.cellX[b]) <= 1 && d(mo.cellY[a], mo.cellY[b]) <= 1
}

// bruteAfter is the oracle for Blocks.After: the ascending nodes of
// cell's 3×3 block strictly greater than u.
func bruteAfter(mo *Morton, torus bool, nodeCell []int32, cell int32, u int) []int32 {
	var out []int32
	for v, c := range nodeCell {
		if v > u && near(mo, torus, cell, c) {
			out = append(out, int32(v))
		}
	}
	return out
}

func TestBlocksAfterMatchesBruteForce(t *testing.T) {
	r := rng.New(21)
	for _, torus := range []bool{false, true} {
		for _, k := range []int{1, 3, 6} {
			n := 300
			mo := NewMorton(k, torus)
			nodeCell := make([]int32, n)
			for u := range nodeCell {
				nodeCell[u] = int32(r.Intn(k * k))
			}
			var b Blocks
			b.Build(mo, cellStarts(nodeCell, k*k), nodeCell)
			for u := 0; u < n; u += 7 {
				cell := nodeCell[u]
				got := b.After(cell, u)
				want := bruteAfter(mo, torus, nodeCell, cell, u)
				if !slices.Equal(got, want) {
					t.Fatalf("torus=%v k=%d After(%d, %d) = %v, want %v", torus, k, cell, u, got, want)
				}
			}
			// After(cell, -1) is the whole block, ascending.
			for c := int32(0); c < int32(k*k); c++ {
				if all, want := b.After(c, -1), bruteAfter(mo, torus, nodeCell, c, -1); !slices.Equal(all, want) {
					t.Fatalf("torus=%v k=%d: block %d = %v, want %v", torus, k, c, all, want)
				}
			}
		}
	}
}

func TestBlocksRebuildReusesBuffers(t *testing.T) {
	// A second Build over a smaller, different layout must fully
	// replace the first index even though the buffers are recycled.
	k := 4
	mo := NewMorton(k, true)
	var b Blocks
	nodeCell1 := []int32{0, 0, 5, 10, 15, 15, 15}
	b.Build(mo, cellStarts(nodeCell1, k*k), nodeCell1)

	nodeCell2 := []int32{3, 3, 3}
	b.Build(mo, cellStarts(nodeCell2, k*k), nodeCell2)
	for c := int32(0); c < int32(k*k); c++ {
		got := b.After(c, -1)
		want := bruteAfter(mo, true, nodeCell2, c, -1)
		if !slices.Equal(got, want) {
			t.Fatalf("after rebuild, block %d = %v, want %v", c, got, want)
		}
	}
}

func TestBlocksEmptyCells(t *testing.T) {
	// An entirely empty grid yields empty blocks everywhere.
	k := 3
	var b Blocks
	b.Build(NewMorton(k, false), cellStarts(nil, k*k), nil)
	for c := int32(0); c < int32(k*k); c++ {
		if got := b.After(c, -1); len(got) != 0 {
			t.Fatalf("empty grid block %d = %v, want empty", c, got)
		}
	}
}
