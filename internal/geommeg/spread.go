package geommeg

import (
	"meg/internal/bitset"
	"meg/internal/celldelta"
)

// spreadIndex is the per-round scratch of the snapshot-free flooding
// round (core.Spreader): the model's cell list with every cell's
// members split into informed ones (front) and uninformed ones (back).
// Positions are copied alongside the ids so the distance scans read
// memory sequentially.
type spreadIndex struct {
	order  []int32 // node ids, cell segments as in cellOrder
	pos    []point // positions of order's nodes
	infEnd []int32 // per cell: end of the informed front of its segment
	ready  bool    // IndexInformed ran since the last Step/Reset
}

type point struct{ x, y int32 }

// span is a half-open range of spreadIndex.pos.
type span struct{ lo, hi int32 }

// IndexInformed implements core.Spreader: it brings the cell list up to
// date with the current positions and splits every cell's members into
// informed and uninformed ones. Under brute force (fewer than 3 cells
// per axis) the whole node set is one cell whose block is itself.
func (m *Model) IndexInformed(informed *bitset.Set) {
	n := m.cfg.N
	s := &m.spread
	if s.order == nil {
		s.order = make([]int32, n)
		s.pos = make([]point, n)
		s.infEnd = make([]int32, m.cellsPer*m.cellsPer)
	}
	if m.bruteForce {
		m.splitCell(informed, 0, 0, int32(n), nil)
	} else {
		if !m.cellsValid {
			m.buildCells()
		}
		starts := m.cellStarts
		for c := range s.infEnd {
			lo, hi := starts[c], starts[c+1]
			m.splitCell(informed, c, lo, hi, m.cellOrder[lo:hi])
		}
	}
	s.ready = true
}

// splitCell fills order/pos[lo:hi] with the members of cell c (the
// node ids in members, or lo..hi-1 when members is nil): informed
// nodes from the front, uninformed ones from the back.
func (m *Model) splitCell(informed *bitset.Set, c int, lo, hi int32, members []int32) {
	s := &m.spread
	words := informed.Words()
	front, back := lo, hi
	for i := lo; i < hi; i++ {
		u := i
		if members != nil {
			u = members[i-lo]
		}
		p := point{m.ix[u], m.iy[u]}
		if words[u>>6]&(1<<(uint(u)&63)) != 0 {
			s.order[front], s.pos[front] = u, p
			front++
		} else {
			back--
			s.order[back], s.pos[back] = u, p
		}
	}
	s.infEnd[c] = front
}

// Spread implements core.Spreader: it appends every uninformed node
// within distance R of an informed one. Cells with no uninformed member
// or no informed node in their 3×3 block are skipped whole; every other
// uninformed node scans its block's informed members and stops at the
// first hit. The distance test is the one Graph uses, so the result is
// exactly N_{G_t}(I) \ I.
func (m *Model) Spread(informed *bitset.Set, newly []int32) []int32 {
	s := &m.spread
	if !s.ready {
		panic("geommeg: Spread before IndexInformed")
	}
	if m.bruteForce {
		return m.spreadCell(s.infEnd[0], int32(m.cfg.N), []span{{0, s.infEnd[0]}}, newly)
	}
	starts := m.cellStarts
	var block [9]span
	for c := range s.infEnd {
		if s.infEnd[c] == starts[c+1] {
			continue // fully informed (or empty)
		}
		nb := 0
		celldelta.ForBlockCellsLayout(m.cellsPer, m.lat.torus, m.morton, c, func(bc int) {
			if lo, hi := starts[bc], s.infEnd[bc]; hi > lo {
				block[nb] = span{lo, hi}
				nb++
			}
		})
		if nb > 0 {
			newly = m.spreadCell(s.infEnd[c], starts[c+1], block[:nb], newly)
		}
	}
	return newly
}

// spreadCell appends each uninformed node of order[lo:hi] that lies
// within R of some informed position in the given spans.
func (m *Model) spreadCell(lo, hi int32, informed []span, newly []int32) []int32 {
	s := &m.spread
	for i := lo; i < hi; i++ {
		p := s.pos[i]
	scan:
		for _, sp := range informed {
			for _, q := range s.pos[sp.lo:sp.hi] {
				if m.lat.adjacent(p.x, p.y, q.x, q.y) {
					newly = append(newly, s.order[i])
					break scan
				}
			}
		}
	}
	return newly
}
