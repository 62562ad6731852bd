package graph

import (
	"fmt"

	"meg/internal/bitset"
	"meg/internal/par"
)

// Mutable is an incrementally maintained snapshot: a CSR graph stored
// with per-row slack so that applying a birth/death Delta rebuilds only
// the rows the delta touches, in O(churn · degree) instead of the
// O(n + m) a full Builder pass costs. It is the engine-side half of the
// incremental snapshot path: a delta-capable dynamics emits Deltas
// (core.DeltaDynamics) and the engines fold them into a Mutable instead
// of re-materializing every round.
//
// Invariant: every adjacency row is sorted ascending — the canonical
// row order all delta-capable models produce — so dirty rows rebuild by
// linear three-way merge and the maintained view stays byte-identical
// to a from-scratch build of the same edge set.
//
// The *Graph returned by Graph is a live view: ApplyDelta updates it in
// place (same pointer), mirroring the "snapshot valid until the next
// Step" aliasing contract of the dynamics themselves. After Retire the
// view covers only the rows of nodes outside the retired set; the
// edge count stays exact.
type Mutable struct {
	view Graph

	// Per-row delta scatter, epoch-stamped so steady-state rounds touch
	// only O(churn) state.
	adds    [][]int32
	dels    [][]int32
	touched []uint32
	epoch   uint32
	dirty   []int32
	newLen  []int32

	// Per-worker merge scratch for the in-place rebuild.
	scratch [][]int32

	// spareOffs/spareAdj/spareLens are the layout the last relayout
	// replaced, recycled by the next one: rows of a view are invalid
	// after the next ApplyDelta anyway, so nothing can still read them.
	spareOffs, spareAdj, spareLens []int32

	// done is the retired set, nil until Retire; keys then holds every
	// edge of the snapshot, so keys between two retired nodes are still
	// validated. The table is kept across Reset for reuse.
	done *bitset.Set
	keys edgeSet
}

// rowSlack returns the storage capacity for a row of the given live
// length: 25% headroom plus a constant, so low-churn rounds almost
// never trigger a relayout and memory stays within ~1.3× the packed
// layout.
func rowSlack(l int) int { return l + l/4 + 4 }

// NewMutable returns a Mutable initialized to a copy of g. Every row of
// g must be sorted ascending (the canonical order of all delta-capable
// models); NewMutable panics otherwise, because the merge-based row
// rebuild would silently corrupt unsorted rows. g itself is not
// retained.
func NewMutable(g *Graph) *Mutable {
	m := &Mutable{}
	m.Reset(g)
	return m
}

// Reset reinitializes m to a copy of g, reusing the existing backing
// arrays wherever capacities allow — the trial-level counterpart of
// graph.Builder's round-level recycling, which is what lets the
// engines pool one Mutable across runs instead of paying a fresh
// O(n + m) allocation each time. The spare layout is dropped (a
// pooled Mutable never holds one sized for an earlier run), the retired
// set is dropped (every row is maintained again), and the epoch stamps
// keep advancing so stale per-row scatter state can never alias the new
// run's. Like NewMutable it panics on unsorted rows.
func (m *Mutable) Reset(g *Graph) {
	n := g.N()
	if grow := n - len(m.adds); grow > 0 {
		m.adds = append(m.adds, make([][]int32, grow)...)
		m.dels = append(m.dels, make([][]int32, grow)...)
		m.touched = append(m.touched, make([]uint32, grow)...)
		m.newLen = append(m.newLen, make([]int32, grow)...)
	}
	m.adds = m.adds[:n]
	m.dels = m.dels[:n]
	m.touched = m.touched[:n]
	m.newLen = m.newLen[:n]
	m.dirty = m.dirty[:0]
	m.spareOffs, m.spareAdj, m.spareLens = nil, nil, nil
	m.done = nil

	offs := resize(m.view.offs, n+1)
	offs[0] = 0
	for u := 0; u < n; u++ {
		offs[u+1] = offs[u] + int32(rowSlack(g.Degree(u)))
	}
	adj := resize(m.view.adj, int(offs[n]))
	lens := resize(m.view.lens, n)
	for u := 0; u < n; u++ {
		row := g.Neighbors(u)
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				panic(fmt.Sprintf("graph: NewMutable requires sorted adjacency rows (row %d)", u))
			}
		}
		copy(adj[offs[u]:], row)
		lens[u] = int32(len(row))
	}
	m.view = Graph{n: n, offs: offs, adj: adj, lens: lens, mCount: g.M()}
}

// N returns the node count.
func (m *Mutable) N() int { return m.view.n }

// Graph returns the live snapshot view. The pointer stays valid across
// ApplyDelta calls — the contents update in place — and must be treated
// like any dynamics snapshot: stale copies of its rows are invalid
// after the next ApplyDelta. After Retire, the rows of retired nodes
// hold unspecified contents; M, AvgDegree and the rows of every other
// node stay exact.
func (m *Mutable) Graph() *Graph { return &m.view }

// Retire stops maintaining the rows of the nodes in done: from the next
// ApplyDelta on, only rows of nodes outside done are touched, merged
// and stamped, and retired rows keep unspecified contents. done is
// aliased, not copied, and may only grow until the next Reset, which
// drops it. It is the flooding engine's straggler-regime contract: the
// pull kernel reads only uninformed rows, so informed rows are dead
// weight that churn would otherwise keep rebuilding.
//
// Validation keeps full strength. Retire builds, in O(m), an exact set
// of the snapshot's edge keys, which every later delta is checked
// against and folded into — so a birth already present or a death
// absent is rejected even between two retired nodes. Retire panics if
// done spans another universe or the Mutable is already retired.
func (m *Mutable) Retire(done *bitset.Set) {
	if done.Len() != m.view.n {
		panic("graph: Retire universe mismatch")
	}
	if m.done != nil {
		panic("graph: Retire called twice without a Reset")
	}
	m.keys.reset(m.view.mCount)
	m.view.ForEachEdge(func(u, v int) { m.keys.insert(PackEdge(u, v)) })
	m.done = done
}

// ApplyDelta advances the snapshot G_t → G_{t+1}: deaths are removed
// and births inserted, and only the adjacency rows incident to the
// delta are rebuilt — in parallel over dirty rows on up to workers
// goroutines. Because each row's new content is a pure function of its
// old content and the delta, and rows rebuild into disjoint storage,
// the resulting snapshot is byte-identical for every worker count.
//
// Births and Deaths must be ascending PackEdge lists, disjoint from
// each other, with births absent from and deaths present in the current
// snapshot; ApplyDelta panics on any violation rather than corrupting
// the view. After Retire, rows of retired nodes are left alone and the
// edge-key set checks every key instead.
func (m *Mutable) ApplyDelta(d Delta, workers int) {
	if d.Empty() {
		return
	}
	if workers < 1 {
		workers = 1
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		for i := range m.touched {
			m.touched[i] = 0
		}
		m.epoch = 1
	}
	m.dirty = m.dirty[:0]
	m.scatter(d.Births, m.adds, "births")
	m.scatter(d.Deaths, m.dels, "deaths")
	if m.done != nil {
		m.keys.apply(d)
	}

	// Per dirty row the new length is exact arithmetic — births are
	// absent, deaths present — so capacity fits are known before any
	// merge runs.
	relayout := false
	for _, u := range m.dirty {
		nl := int(m.view.lens[u]) + len(m.adds[u]) - len(m.dels[u])
		if nl < 0 {
			panic(fmt.Sprintf("graph: ApplyDelta removes more edges than row %d holds", u))
		}
		m.newLen[u] = int32(nl)
		if nl > int(m.view.offs[u+1]-m.view.offs[u]) {
			relayout = true
		}
	}
	if relayout {
		m.relayout(workers)
	} else {
		m.rebuildInPlace(workers)
	}
	m.view.mCount += len(d.Births) - len(d.Deaths)
}

// scatter distributes one delta list into per-row neighbor lists,
// recording first-touched rows in m.dirty and skipping retired rows.
// Because the list is sorted by (u, v) key, every row's scattered
// neighbors arrive ascending: for row w the (x, w) entries (x < w,
// ascending) all precede the (w, v) entries (v > w, ascending).
func (m *Mutable) scatter(keys []uint64, into [][]int32, kind string) {
	n := m.view.n
	var done []uint64
	if m.done != nil {
		done = m.done.Words()
	}
	var prev uint64
	for i, k := range keys {
		if i > 0 && k <= prev {
			panic("graph: ApplyDelta " + kind + " not strictly ascending")
		}
		prev = k
		u, v := UnpackEdge(k)
		if u < 0 || v <= u || v >= n {
			panic(fmt.Sprintf("graph: ApplyDelta %s edge (%d,%d) out of range n=%d", kind, u, v, n))
		}
		if done == nil || done[u>>6]&(1<<(uint(u)&63)) == 0 {
			m.touch(int32(u))
			into[u] = append(into[u], int32(v))
		}
		if done == nil || done[v>>6]&(1<<(uint(v)&63)) == 0 {
			m.touch(int32(v))
			into[v] = append(into[v], int32(u))
		}
	}
}

// touch marks a row dirty for this epoch, resetting its delta lists on
// first touch.
func (m *Mutable) touch(u int32) {
	if m.touched[u] != m.epoch {
		m.touched[u] = m.epoch
		m.adds[u] = m.adds[u][:0]
		m.dels[u] = m.dels[u][:0]
		m.dirty = append(m.dirty, u)
	}
}

// rebuildInPlace merges every dirty row into its existing storage slot
// (all fit was verified by the caller). Each worker merges into private
// scratch first because the target range overlaps the old row.
func (m *Mutable) rebuildInPlace(workers int) {
	if len(m.scratch) < workers {
		m.scratch = append(m.scratch, make([][]int32, workers-len(m.scratch))...)
	}
	par.ForBlocks(workers, len(m.dirty), func(blk, lo, hi int) {
		scratch := m.scratch[blk]
		for i := lo; i < hi; i++ {
			u := m.dirty[i]
			off := m.view.offs[u]
			old := m.view.adj[off : off+m.view.lens[u]]
			nl := int(m.newLen[u])
			if cap(scratch) < nl {
				scratch = make([]int32, nl+nl/2+4)
			}
			buf := scratch[:nl]
			mergeRow(buf, old, m.adds[u], m.dels[u], int(u))
			copy(m.view.adj[off:], buf)
			m.view.lens[u] = int32(nl)
		}
		m.scratch[blk] = scratch
	})
}

// relayout rebuilds the whole slack layout into the spare arrays: fresh
// capacities from the post-delta row lengths, clean rows copied, dirty
// rows merged directly into their new (disjoint) slots; the old arrays
// become the spares. Retired rows get no storage and length zero.
// Amortized by the slack headroom, so steady-state low-churn rounds
// essentially never pay it.
func (m *Mutable) relayout(workers int) {
	n := m.view.n
	newOffs := resize(m.spareOffs, n+1)
	newOffs[0] = 0
	for u := 0; u < n; u++ {
		c := 0
		switch {
		case m.touched[u] == m.epoch:
			c = rowSlack(int(m.newLen[u]))
		case !m.retired(u):
			c = rowSlack(int(m.view.lens[u]))
		}
		newOffs[u+1] = newOffs[u] + int32(c)
	}
	newAdj := resize(m.spareAdj, int(newOffs[n]))
	newLens := resize(m.spareLens, n)
	par.ForBlocks(workers, n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			off := m.view.offs[u]
			old := m.view.adj[off : off+m.view.lens[u]]
			if m.touched[u] == m.epoch {
				nl := int(m.newLen[u])
				mergeRow(newAdj[newOffs[u]:newOffs[u]+int32(nl)], old, m.adds[u], m.dels[u], u)
				newLens[u] = int32(nl)
			} else if m.retired(u) {
				newLens[u] = 0
			} else {
				copy(newAdj[newOffs[u]:], old)
				newLens[u] = m.view.lens[u]
			}
		}
	})
	m.spareOffs, m.spareAdj, m.spareLens = m.view.offs, m.view.adj, m.view.lens
	m.view.offs, m.view.adj, m.view.lens = newOffs, newAdj, newLens
}

// retired reports whether u's row is no longer maintained.
func (m *Mutable) retired(u int) bool { return m.done != nil && m.done.Contains(u) }

// resize returns buf resliced to length n, or a fresh slice when its
// capacity falls short. The contents are unspecified.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// mergeRow writes (old ∪ adds) \ dels into dst, which is sized by the
// length arithmetic len(old) + len(adds) − len(dels). All three inputs
// are ascending; adds must be disjoint from old and dels a subset of it
// — violations panic, naming the row.
func mergeRow(dst, old, adds, dels []int32, row int) {
	i, j, k, out := 0, 0, 0, 0
	for i < len(old) || j < len(adds) {
		var v int32
		if j >= len(adds) || (i < len(old) && old[i] < adds[j]) {
			v = old[i]
			i++
			if k < len(dels) && dels[k] == v {
				k++
				continue
			}
		} else {
			if i < len(old) && old[i] == adds[j] {
				panic(fmt.Sprintf("graph: ApplyDelta birth of an edge already present in row %d", row))
			}
			v = adds[j]
			j++
		}
		if out == len(dst) { // more survivors than the arithmetic allowed
			panic(fmt.Sprintf("graph: ApplyDelta death of an edge absent from row %d", row))
		}
		dst[out] = v
		out++
	}
	if k != len(dels) {
		panic(fmt.Sprintf("graph: ApplyDelta death of an edge absent from row %d", row))
	}
}
