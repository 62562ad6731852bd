package geommeg

import (
	"meg/internal/bitset"
	"meg/internal/celldelta"
)

// IndexInformed implements core.Spreader: it brings the cell grid up to
// date with the current positions and splits every cell's members into
// informed and uninformed ones.
func (m *Model) IndexInformed(informed *bitset.Set) { m.grid.IndexInformed(informed) }

// Spread implements core.Spreader: it appends every uninformed node
// within distance R of an informed one. The distance test is the one
// Graph uses, so the result is exactly N_{G_t}(I) \ I.
func (m *Model) Spread(_ *bitset.Set, newly []int32) []int32 { return m.grid.Spread(newly) }

// spreadCell is the grid's Spread scan: every uninformed node of
// ids[lo:hi] scans the informed positions of its block and stops at
// the first one within R.
func (m *Model) spreadCell(pos []point, ids []int32, lo, hi int32, informed []celldelta.Span, newly []int32) []int32 {
	for i := lo; i < hi; i++ {
		p := pos[i]
	scan:
		for _, sp := range informed {
			for _, q := range pos[sp.Lo:sp.Hi] {
				if m.lat.adjacent(p.x, p.y, q.x, q.y) {
					newly = append(newly, ids[i])
					break scan
				}
			}
		}
	}
	return newly
}
