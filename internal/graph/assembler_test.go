package graph

import (
	"slices"
	"testing"

	"meg/internal/rng"
)

// sampleKeys returns the ascending PackEdge keys of a pseudo-random
// edge set over [0, n) with about m edges (duplicates dropped).
func sampleKeys(n, m int, seed uint64) []uint64 {
	r := rng.New(seed)
	keys := make([]uint64, 0, m)
	for i := 0; i < m; i++ {
		u := r.Intn(n - 1)
		v := u + 1 + r.Intn(n-1-u)
		keys = append(keys, PackEdge(u, v))
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// rowFill is the Build fill that appends the keys' neighbors as the
// block's upper rows, as a sweep does.
func rowFill(keys []uint64) func(lo, hi int, rows, lens []int32) []int32 {
	return func(lo, hi int, rows, lens []int32) []int32 {
		clear(lens)
		for _, k := range keys {
			if u, v := UnpackEdge(k); u >= lo && u < hi {
				rows = append(rows, int32(v))
				lens[u-lo]++
			}
		}
		return rows
	}
}

// graphsIdentical requires the exact same CSR content: node count, edge
// count, and every adjacency list in the same order.
func graphsIdentical(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape differs: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("node %d: degree %d vs %d", u, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d: adjacency order differs at %d: %d vs %d", u, i, na[i], nb[i])
			}
		}
	}
}

func TestAssemblerMatchesBuilder(t *testing.T) {
	// buildFromKeys adds the edges in ascending (u, v) order, so its
	// rows ascend too.
	keys := sampleKeys(60, 300, 3)
	want := buildFromKeys(60, keys)
	graphsIdentical(t, want, NewAssembler(60).Build(1, rowFill(keys)))
	for u := 0; u < want.N(); u++ {
		if !slices.IsSorted(want.Neighbors(u)) {
			t.Fatalf("reference row %d not ascending", u)
		}
	}
}

func TestAssemblerByteIdenticalAcrossWorkers(t *testing.T) {
	// Above the size floor every worker assembles its own node block;
	// the CSR must still match the serial reference byte for byte.
	n := 3000
	keys := sampleKeys(n, assembleFloor+assembleFloor/4, 5)
	if len(keys) < assembleFloor {
		t.Fatalf("%d keys do not clear the floor %d", len(keys), assembleFloor)
	}
	want := buildFromKeys(n, keys)
	a := NewAssembler(n)
	for _, workers := range []int{1, 2, 3, 8} {
		graphsIdentical(t, want, a.Build(workers, rowFill(keys)))
	}
}

func TestAssemblerBelowFloor(t *testing.T) {
	keys := sampleKeys(50, 200, 9)
	want := buildFromKeys(50, keys)
	a := NewAssembler(50)
	for _, workers := range []int{1, 2, 3, 8} {
		graphsIdentical(t, want, a.Build(workers, rowFill(keys)))
	}
}

func TestAssemblerKeyRows(t *testing.T) {
	// A key list read in place gives the same CSR as AddEdge + Build,
	// on both sides of the floor.
	for _, tc := range []struct{ n, m int }{{2, 1}, {40, 0}, {200, 3000}, {3000, assembleFloor + assembleFloor/4}} {
		keys := sampleKeys(tc.n, tc.m, 11)
		want := buildFromKeys(tc.n, keys)
		a := NewAssembler(tc.n)
		for _, workers := range []int{1, 2, 3, 8} {
			graphsIdentical(t, want, a.BuildKeys(workers, keys))
		}
	}
}

func TestAssemblerReusesArrays(t *testing.T) {
	// Every build returns the same graph, overwritten: larger edge sets
	// after smaller ones and back, from either form, with nothing left
	// of the earlier ones.
	a := NewAssembler(100)
	g := a.Build(2, rowFill(sampleKeys(100, 50, 1)))
	for i, m := range []int{2000, 10, 0, 700, 1500} {
		keys := sampleKeys(100, m, uint64(20+i))
		var got *Graph
		if i%2 == 0 {
			got = a.BuildKeys(1+i%3, keys)
		} else {
			got = a.Build(1+i%3, rowFill(keys))
		}
		if got != g {
			t.Fatal("rebuild returned a different *Graph")
		}
		graphsIdentical(t, buildFromKeys(100, keys), g)
	}
}

func TestAssemblerPanicsOnBadRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows []int32
		lens []int32 // upper-row lengths of nodes 0..9
	}{
		{"out of range", []int32{10}, []int32{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"self loop", []int32{4}, []int32{0, 0, 0, 0, 1, 0, 0, 0, 0, 0}},
		{"lower entry", []int32{2}, []int32{0, 0, 0, 0, 1, 0, 0, 0, 0, 0}},
		{"descending", []int32{7, 5}, []int32{0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
		{"repeated", []int32{5, 5}, []int32{0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
		{"lengths short", []int32{3, 5}, []int32{0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"lengths long", []int32{3}, []int32{0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
	} {
		// The rows go to the block of the one node with a row.
		u := slices.IndexFunc(tc.lens, func(l int32) bool { return l > 0 })
		for _, workers := range []int{1, 4} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, %d workers: no panic", tc.name, workers)
					}
				}()
				NewAssembler(10).Build(workers, func(lo, hi int, rows, lens []int32) []int32 {
					copy(lens, tc.lens[lo:hi])
					if lo <= u && u < hi {
						return append(rows, tc.rows...)
					}
					return rows
				})
			}()
		}
	}
}

func TestAssemblerPanicsOnBadKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []uint64
	}{
		{"out of range", []uint64{PackEdge(0, 1), 3<<32 | 10}},
		{"self loop", []uint64{4<<32 | 4}},
		{"lower entry", []uint64{4<<32 | 2}},
		{"descending", []uint64{PackEdge(2, 7), PackEdge(2, 5)}},
		{"descending across rows", []uint64{PackEdge(6, 7), PackEdge(2, 5)}},
		{"repeated", []uint64{PackEdge(2, 5), PackEdge(2, 5)}},
		{"node out of range", []uint64{12<<32 | 13}},
	} {
		for _, workers := range []int{1, 4} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, %d workers: no panic", tc.name, workers)
					}
				}()
				NewAssembler(10).BuildKeys(workers, tc.keys)
			}()
		}
	}
}
