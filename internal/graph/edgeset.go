package graph

import (
	"fmt"
	"math/bits"
)

// edgeSet is an exact set of PackEdge keys: open addressing with linear
// probing over a power-of-two table. Slots hold key+1 so that the zero
// word marks an empty slot (PackEdge keys never reach 2⁶⁴−1), and
// removal shifts the rest of the probe run back instead of leaving
// tombstones, so the table never degrades under churn.
type edgeSet struct {
	slots []uint64
	count int
	shift uint // 64 − log₂ len(slots)
}

// reset empties the set and sizes it for about want keys, reusing the
// table when it is large enough.
func (s *edgeSet) reset(want int) {
	size := 8
	for size*3 < want*4 {
		size <<= 1
	}
	if cap(s.slots) >= size {
		s.slots = s.slots[:size]
		clear(s.slots)
	} else {
		s.slots = make([]uint64, size)
	}
	s.count = 0
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home is the key's preferred slot (Fibonacci hashing).
func (s *edgeSet) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> s.shift) }

// insert adds k and reports whether it was absent.
func (s *edgeSet) insert(k uint64) bool {
	if (s.count+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	mask := len(s.slots) - 1
	e := k + 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = e
			s.count++
			return true
		case e:
			return false
		}
	}
}

// remove deletes k and reports whether it was present.
func (s *edgeSet) remove(k uint64) bool {
	mask := len(s.slots) - 1
	e := k + 1
	i := s.home(k)
	for ; s.slots[i] != e; i = (i + 1) & mask {
		if s.slots[i] == 0 {
			return false
		}
	}
	// Backward shift: an entry later in the run moves into the hole
	// when its home lies at or before the hole, cyclically.
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.slots[j]-1))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
	s.count--
	return true
}

// grow doubles the table and reinserts every key.
func (s *edgeSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.shift--
	s.count = 0
	for _, e := range old {
		if e != 0 {
			s.insert(e - 1)
		}
	}
}

// apply folds d into the set, panicking unless every death is present
// and every birth absent before the delta. Both lists must already be
// ascending: a birth that is also a death was present before the delta
// (the death found it), which the cursor into the deaths catches.
func (s *edgeSet) apply(d Delta) {
	for _, k := range d.Deaths {
		if !s.remove(k) {
			u, v := UnpackEdge(k)
			panic(fmt.Sprintf("graph: ApplyDelta death of an edge absent from the snapshot (%d,%d)", u, v))
		}
	}
	j := 0
	for _, k := range d.Births {
		for j < len(d.Deaths) && d.Deaths[j] < k {
			j++
		}
		if (j < len(d.Deaths) && d.Deaths[j] == k) || !s.insert(k) {
			u, v := UnpackEdge(k)
			panic(fmt.Sprintf("graph: ApplyDelta birth of an edge already present in the snapshot (%d,%d)", u, v))
		}
	}
}
