// Package celldelta is the cell grid the geometric-family models share:
// geommeg's lattice walk and mobility's continuous processes. The
// square is cut into k×k cells at least one transmission radius wide,
// so every neighbor of a node lies in the 3×3 block of cells around its
// own. From the model's positions the grid keeps a counting-sorted cell
// list in Z-order layout and answers the two questions the engines ask
// of a geometric snapshot:
//
//   - the snapshot G_t itself as a CSR graph (Graph), built by a
//     parallel sweep over the merged 3×3 blocks;
//   - one flooding round straight from positions, without a snapshot
//     (IndexInformed and Spread, the core.Spreader pair).
//
// A grid with fewer than 3 cells per axis becomes one cell whose block
// is itself, which reproduces the all-pairs scan in the same order.
//
// The models keep their positions and their adjacency test. The grid
// calls the model's scan loops (Scans) once per node block or once per
// cell, never once per pair, so the distance test stays inlined in the
// model's own innermost loop. A per-pair call through a func value or a
// generic constraint method roughly doubles the cost of a pair scan.
package celldelta

import (
	"meg/internal/bitset"
	"meg/internal/graph"
)

// Span is a half-open range [Lo, Hi) of a Grid's spread order.
type Span struct{ Lo, Hi int32 }

// Scans are the model's scan loops, bound once when the grid is made so
// that no round allocates. Each holds the model's adjacency test inline.
type Scans[P any] struct {
	// Locate writes into cells[u] the cell of node u's current
	// position, computed with Grid.Cell, for every node.
	Locate func(cells []int32)
	// Sweep appends the edges {u, v}, v > u, of the nodes u in [lo, hi)
	// to srcs/dsts in ascending u, each u's partners in the order
	// Grid.After(u) lists its candidates, and returns the extended
	// slices (the graph.BlockSweep contract).
	Sweep func(lo, hi int, srcs, dsts []int32) ([]int32, []int32)
	// Spread appends to newly every ids[i], lo ≤ i < hi, whose position
	// pos[i] is adjacent to some pos[j] with j inside one of the
	// informed spans, and returns it.
	Spread func(pos []P, ids []int32, lo, hi int32, informed []Span, newly []int32) []int32
}

// Grid is the cell index over one model's node positions, of any
// position type P. The model owns the positions (the slice handed to
// NewGrid) and calls Moved whenever they change; the grid rebuilds its
// cells lazily, on the next Graph or IndexInformed.
type Grid[P any] struct {
	width float64 // cell side, in the units of Cell's coordinates
	mo    *Morton
	pos   []P
	scans Scans[P]

	// The cell list: nodeCell[u] is u's cell; the members of cell c are
	// order[starts[c]:starts[c+1]], ascending.
	counts, starts []int32
	order          []int32
	nodeCell       []int32
	valid          bool // the cell list matches the current positions

	// The snapshot path.
	blocks  Blocks
	sweep   graph.BlockSweep
	builder *graph.Builder
	g       *graph.Graph
	dirty   bool // g is stale
	workers int

	// The spread index, allocated on first use: every cell's members
	// with the informed ones at the front of its segment (up to
	// infEnd[c]) and the uninformed at the back. Positions are copied
	// alongside the ids so the scans read memory sequentially.
	ids    []int32
	spos   []P
	infEnd []int32
	block  [9]Span
	ready  bool // IndexInformed ran since the last Moved
}

// NewGrid returns the grid over the nodes whose positions are pos, on
// a square of the given side whose adjacent pairs lie at most reach
// apart along each axis. pos is read, never written, and must stay the
// same slice for the grid's lifetime.
func NewGrid[P any](pos []P, side, reach float64, torus bool, scans Scans[P]) *Grid[P] {
	k := int(side / reach)
	if k < 3 {
		k = 1
	}
	n := len(pos)
	return &Grid[P]{
		width:    side / float64(k),
		mo:       NewMorton(k, torus),
		pos:      pos,
		scans:    scans,
		counts:   make([]int32, k*k+1),
		starts:   make([]int32, k*k+1),
		order:    make([]int32, n),
		nodeCell: make([]int32, n),
		dirty:    true,
		workers:  1,
	}
}

// SetWorkers sets the worker count of Graph's block index and sweep
// (at least 1). Snapshots are byte-identical for every value.
func (g *Grid[P]) SetWorkers(workers int) { g.workers = max(workers, 1) }

// Moved records that the positions changed: the next Graph or
// IndexInformed rebuilds the cells, and Spread needs a new
// IndexInformed.
func (g *Grid[P]) Moved() { g.valid, g.dirty, g.ready = false, true, false }

// Cell returns the cell of the point (x, y), clamped into the grid.
func (g *Grid[P]) Cell(x, y float64) int32 {
	k := g.mo.k
	cx := min(max(int(x/g.width), 0), k-1)
	cy := min(max(int(y/g.width), 0), k-1)
	return g.mo.Cell(cx, cy)
}

// After returns the ascending candidates v > u in the 3×3 block of u's
// cell. It is valid inside Scans.Sweep.
func (g *Grid[P]) After(u int) []int32 { return g.blocks.After(g.nodeCell[u], u) }

// Graph returns the snapshot: every pair the model's Sweep finds
// adjacent among the candidates After lists. It is cached until the
// next Moved and valid until then.
func (g *Grid[P]) Graph() *graph.Graph {
	if !g.dirty {
		return g.g
	}
	g.index()
	if g.builder == nil {
		g.builder = graph.NewBuilder(len(g.pos))
	}
	g.builder.Reset(len(g.pos))
	g.blocks.Build(g.mo, g.starts, g.order, g.workers)
	// Per contiguous node block into private buffers, concatenated in
	// block order: the serial u-ascending emission, so the snapshot is
	// byte-identical for every worker count.
	g.g = g.sweep.Run(g.builder, g.workers, len(g.pos), g.scans.Sweep)
	g.dirty = false
	return g.g
}

// index brings the cell list up to date with the positions: a counting
// sort that visits u ascending, so members ascend within each cell.
func (g *Grid[P]) index() {
	if g.valid {
		return
	}
	g.scans.Locate(g.nodeCell)
	cells := len(g.starts) - 1
	counts := g.counts
	clear(counts)
	for _, c := range g.nodeCell {
		counts[c+1]++
	}
	starts := g.starts
	for c := 1; c <= cells; c++ {
		starts[c] = starts[c-1] + counts[c]
	}
	cursor := counts[:cells]
	copy(cursor, starts[:cells])
	for u, c := range g.nodeCell {
		g.order[cursor[c]] = int32(u)
		cursor[c]++
	}
	g.valid = true
}

// IndexInformed implements the first half of core.Spreader: it brings
// the cells up to date and splits every cell's members into informed
// and uninformed ones.
func (g *Grid[P]) IndexInformed(informed *bitset.Set) {
	if g.ids == nil {
		g.ids = make([]int32, len(g.pos))
		g.spos = make([]P, len(g.pos))
		g.infEnd = make([]int32, len(g.starts)-1)
	}
	g.index()
	words := informed.Words()
	for c := range g.infEnd {
		lo, hi := g.starts[c], g.starts[c+1]
		front, back := lo, hi
		for _, u := range g.order[lo:hi] {
			if words[u>>6]&(1<<(uint(u)&63)) != 0 {
				g.ids[front], g.spos[front] = u, g.pos[u]
				front++
			} else {
				back--
				g.ids[back], g.spos[back] = u, g.pos[u]
			}
		}
		g.infEnd[c] = front
	}
	g.ready = true
}

// Spread implements the second half of core.Spreader: it appends every
// uninformed node adjacent to an informed one, for the set last passed
// to IndexInformed. Cells with no uninformed member, or no informed
// node in their 3×3 block, are skipped whole; every other cell's
// uninformed members go to the model's Spread scan with the block's
// informed spans.
func (g *Grid[P]) Spread(newly []int32) []int32 {
	if !g.ready {
		panic("celldelta: Spread before IndexInformed")
	}
	for c := range g.infEnd {
		lo, hi := g.infEnd[c], g.starts[c+1]
		if lo == hi {
			continue // fully informed (or empty)
		}
		nb := 0
		for _, bc := range g.mo.Block(int32(c)) {
			if blo, bhi := g.starts[bc], g.infEnd[bc]; bhi > blo {
				g.block[nb] = Span{blo, bhi}
				nb++
			}
		}
		if nb > 0 {
			newly = g.scans.Spread(g.spos, g.ids, lo, hi, g.block[:nb], newly)
		}
	}
	return newly
}
