package graph

import (
	"fmt"
	"slices"

	"meg/internal/par"
)

// assembleFloor is the upper-row entry count below which the CSR is
// assembled in one block: under ~1M endpoint updates the fork/join and
// the redundant scans cost more than they save.
const assembleFloor = 1 << 19

// Assembler builds the CSR snapshots of an evolving graph from upper
// rows: node u's upper row is its neighbors v > u in ascending order.
// The CSR row of u is u's lower entries (the nodes w < u whose upper
// rows hold u), scattered in ascending w, followed by u's own upper
// row, so every row comes out ascending with no sort step — the
// canonical row order graph.Mutable merges against, and the order
// Builder.Build produces from the same edges added in ascending (u, v).
//
// The rows come in one of two forms. Build takes them as node ids plus
// a length per node, written per node block by the caller's sweep: half
// the bytes of a key, which the geometric family's dense rows need (fed
// as keys, its 64k-node Step+Graph ran ≈1.4× slower on a 2-CPU x86
// host). BuildKeys takes an ascending PackEdge key list, the edge-MEG's
// edge set, which is its own upper rows grouped by u and is read in
// place. Either way the
// nodes are split into one contiguous block per worker. Above the size
// floor each worker counts and scatters the entries that land in its
// own block's rows, from every block at or below its own, so writes
// never race; below it one block assembles everything. The entries land
// in the same places either way, so the snapshot is byte-identical for
// every worker count.
//
// The CSR lives in arrays the assembler keeps: every build returns the
// same *Graph and overwrites it, so a snapshot is valid only until the
// next build. Construct with NewAssembler.
type Assembler struct {
	g      Graph
	lens   []int32   // lens[u]: the length of u's upper row
	cur    []int32   // per node: lower-entry counts, then scatter cursors
	bounds []int     // block b holds the nodes [bounds[b], bounds[b+1])
	rows   [][]int32 // Build: block b's upper rows, concatenated in ascending u
	keys   []uint64  // BuildKeys: the key list being assembled
	keyAt  []int     // BuildKeys: block b's keys are keys[keyAt[b]:keyAt[b+1]]
}

// NewAssembler returns an assembler of snapshots over [0, n). Its
// arrays are allocated by the first build, so a model that never
// materializes a snapshot pays nothing for them.
func NewAssembler(n int) *Assembler {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Assembler{g: Graph{n: n}}
}

// Build assembles the snapshot whose upper rows fill supplies. fill
// runs once per node block [lo, hi) on up to workers goroutines
// (workers < 1 means 1): it writes the upper-row length of every u in
// [lo, hi) into lens[u-lo] and returns the block's rows concatenated in
// ascending u, appended to rows (the block's buffer from the previous
// Build, emptied).
//
// Build panics if an upper row is not strictly ascending, holds an
// entry at or below its own node (a self-loop or a lower entry) or at
// or above n, or if the lengths do not add up to the rows.
func (a *Assembler) Build(workers int, fill func(lo, hi int, rows, lens []int32) []int32) *Graph {
	p := a.split(workers)
	if len(a.rows) < p {
		a.rows = append(a.rows, make([][]int32, p-len(a.rows))...)
	}
	par.Do(p, p, func(b int) {
		lo, hi := a.bounds[b], a.bounds[b+1]
		a.rows[b] = fill(lo, hi, a.rows[b][:0], a.lens[lo:hi])
		if !a.validRows(lo, hi, a.rows[b]) {
			panic(fmt.Sprintf("graph: Assembler: bad upper rows for nodes [%d,%d) of n=%d", lo, hi, a.g.n))
		}
	})
	m := 0
	for _, rows := range a.rows[:p] {
		m += len(rows)
	}
	return a.assemble(p, m, a.countRows, a.scatterRows)
}

// BuildKeys assembles the snapshot of the edges in keys, an ascending
// list of PackEdge keys, on up to workers goroutines (workers < 1 means
// 1). keys is read in place and must stay unchanged until BuildKeys
// returns. It panics unless the keys strictly ascend with u < v < n.
func (a *Assembler) BuildKeys(workers int, keys []uint64) *Graph {
	p := a.split(workers)
	a.keys = keys
	a.keyAt = append(a.keyAt[:0], make([]int, p+1)...)
	a.keyAt[p] = len(keys)
	par.Do(p, p, func(b int) {
		lo, hi := a.bounds[b], a.bounds[b+1]
		start, end := 0, len(keys)
		if b > 0 {
			start, _ = slices.BinarySearch(keys, uint64(lo)<<32)
		}
		if b+1 < p {
			end, _ = slices.BinarySearch(keys, uint64(hi)<<32)
		}
		a.keyAt[b] = start
		if start > end || !a.validKeys(lo, hi, keys[start:end]) {
			panic(fmt.Sprintf("graph: Assembler: bad edge keys for nodes [%d,%d) of n=%d", lo, hi, a.g.n))
		}
	})
	g := a.assemble(p, len(keys), a.countKeys, a.scatterKeys)
	a.keys = nil
	return g
}

// split sizes the per-node arrays and sets the node blocks of a build
// on up to workers goroutines, returning their count.
func (a *Assembler) split(workers int) int {
	n := a.g.n
	a.lens, a.cur = resize(a.lens, n), resize(a.cur, n)
	p := max(min(workers, n), 1)
	a.bounds = append(a.bounds[:0], make([]int, p+1)...)
	for b := range p {
		a.bounds[b], _ = par.Block(n, p, b)
	}
	a.bounds[p] = n
	return p
}

// assemble lays out the CSR of m upper-row entries held in p blocks.
// count and scatter are the row form's passes over the blocks
// [b0, b1), which own the nodes [bounds[b0], bounds[b1]).
func (a *Assembler) assemble(p, m int, count, scatter func(b0, b1 int)) *Graph {
	n := a.g.n
	parts := 1
	if m >= assembleFloor {
		parts = p
	}
	// Worker w owns the blocks [b0, b1): one block each, or all of them.
	span := func(w int) (b0, b1 int) {
		if parts == 1 {
			return 0, p
		}
		return w, w + 1
	}
	par.Do(parts, parts, func(w int) { count(span(w)) })
	offs := resize(a.g.offs, n+1)
	offs[0] = 0
	for u := range n {
		offs[u+1] = offs[u] + a.cur[u] + a.lens[u]
	}
	adj := a.g.adj
	if total := int(offs[n]); cap(adj) < total {
		adj = make([]int32, total, total+total/8)
	} else {
		adj = adj[:total]
	}
	a.g = Graph{n: n, offs: offs, adj: adj, mCount: m}
	par.Do(parts, parts, func(w int) { scatter(span(w)) })
	return &a.g
}

// validRows reports whether rows are well-formed upper rows of the
// nodes [lo, hi): lengths that add up to the rows, and every row
// strictly ascending between its node and n.
func (a *Assembler) validRows(lo, hi int, rows []int32) bool {
	off := 0
	for u := lo; u < hi; u++ {
		k := int(a.lens[u])
		if k < 0 || k > len(rows)-off {
			return false
		}
		prev := int32(u)
		for _, v := range rows[off : off+k] {
			if v <= prev {
				return false
			}
			prev = v
		}
		if int(prev) >= a.g.n {
			return false
		}
		off += k
	}
	return off == len(rows)
}

// validKeys reports whether keys strictly ascend and hold only edges
// {u, v} with lo ≤ u < hi and u < v < n, and sets the upper-row
// lengths of [lo, hi) from them.
func (a *Assembler) validKeys(lo, hi int, keys []uint64) bool {
	lens := a.lens[lo:hi]
	clear(lens)
	prev := uint64(lo) << 32
	for _, k := range keys {
		u, v := UnpackEdge(k)
		if k <= prev || u >= hi || v <= u || v >= a.g.n {
			return false
		}
		lens[u-lo]++
		prev = k
	}
	return true
}

// countRows sets cur[v] to v's lower-entry count for the nodes of
// blocks [b0, b1), scanning the rows of every block below b1.
func (a *Assembler) countRows(b0, b1 int) {
	lo, hi := a.bounds[b0], a.bounds[b1]
	cnt := a.cur[lo:hi]
	clear(cnt)
	l, size := int32(lo), uint32(hi-lo)
	for _, rows := range a.rows[:b1] {
		for _, v := range rows {
			if d := uint32(v - l); d < size {
				cnt[d]++
			}
		}
	}
}

// scatterRows fills the CSR rows of the nodes of blocks [b0, b1):
// walking the rows of every block below b1 in ascending u, it writes u
// into the rows of those nodes that u's row holds, and copies the
// nodes' own upper rows behind their lower entries, which are complete
// by then (they come from smaller u).
func (a *Assembler) scatterRows(b0, b1 int) {
	lo, hi := a.bounds[b0], a.bounds[b1]
	cur, adj := a.cur, a.g.adj
	copy(cur[lo:hi], a.g.offs[lo:hi])
	l, size := int32(lo), uint32(hi-lo)
	for b, rows := range a.rows[:b1] {
		off := 0
		for u := a.bounds[b]; u < a.bounds[b+1]; u++ {
			row := rows[off : off+int(a.lens[u])]
			off += len(row)
			for _, v := range row {
				if d := uint32(v - l); d < size {
					adj[cur[lo+int(d)]] = int32(u)
					cur[lo+int(d)]++
				}
			}
			if b >= b0 {
				copy(adj[cur[u]:], row)
			}
		}
	}
}

// countKeys is countRows over the key list.
func (a *Assembler) countKeys(b0, b1 int) {
	lo, hi := a.bounds[b0], a.bounds[b1]
	cnt := a.cur[lo:hi]
	clear(cnt)
	l, size := int32(lo), uint32(hi-lo)
	for _, k := range a.keys[:a.keyAt[b1]] {
		if d := uint32(int32(k) - l); d < size {
			cnt[d]++
		}
	}
}

// scatterKeys is scatterRows over the key list: every key below the
// blocks' own writes its u into v's row when v is theirs, and every key
// of their own writes both endpoints. The keys ascend, so a row takes
// all its lower entries before the first key of its own upper row.
func (a *Assembler) scatterKeys(b0, b1 int) {
	lo, hi := a.bounds[b0], a.bounds[b1]
	cur, adj, keys := a.cur, a.g.adj, a.keys
	copy(cur[lo:hi], a.g.offs[lo:hi])
	l, size := int32(lo), uint32(hi-lo)
	for _, k := range keys[:a.keyAt[b0]] {
		if d := uint32(int32(k) - l); d < size {
			adj[cur[lo+int(d)]] = int32(k >> 32)
			cur[lo+int(d)]++
		}
	}
	for _, k := range keys[a.keyAt[b0]:a.keyAt[b1]] {
		u, v := int32(k>>32), int32(k)
		if int(v) < hi {
			adj[cur[v]] = u
			cur[v]++
		}
		adj[cur[u]] = v
		cur[u]++
	}
}
