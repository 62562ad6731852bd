package graph

import (
	"testing"

	"meg/internal/rng"
)

// randomBuilder fills a builder with a deterministic pseudo-random edge
// list (duplicates avoided by construction: consecutive distinct pairs).
func randomBuilder(n, m int, seed uint64) *Builder {
	r := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := r.Intn(n - 1)
		v := u + 1 + r.Intn(n-1-u)
		b.AddEdge(u, v)
	}
	return b
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

func TestBuildParallelByteIdentical(t *testing.T) {
	// BuildParallel must reproduce Build exactly — same counts, same
	// offsets, same adjacency order — for every worker count. The edge
	// list is made large enough to clear the parallel path's size gate.
	n := 300
	b := randomBuilder(n, 1<<19, 5)
	want := randomBuilder(n, 1<<19, 5).Build()
	for _, workers := range []int{1, 2, 3, 8} {
		got := b.BuildParallel(workers)
		graphsIdentical(t, want, got)
	}
}

func TestBuildParallelSmallFallsBackToSerial(t *testing.T) {
	b := randomBuilder(50, 200, 9)
	want := randomBuilder(50, 200, 9).Build()
	graphsIdentical(t, want, b.BuildParallel(8))
}

func TestAddEdgesBulkMatchesAddEdge(t *testing.T) {
	one := NewBuilder(20)
	bulk := NewBuilder(20)
	srcs := []int32{0, 3, 7, 3}
	dsts := []int32{1, 4, 9, 15}
	for i := range srcs {
		one.AddEdge(int(srcs[i]), int(dsts[i]))
	}
	bulk.AddEdgesBulk(srcs, dsts)
	graphsIdentical(t, one.Build(), bulk.Build())
}

func TestAddEdgeBlocksMatchesBulk(t *testing.T) {
	blocks := [][]int32{{0, 5}, {}, {2}, {7, 7, 9}}
	dblocks := [][]int32{{1, 6}, {}, {3}, {8, 19, 10}}
	want := NewBuilder(20)
	for i := range blocks {
		want.AddEdgesBulk(blocks[i], dblocks[i])
	}
	for _, workers := range []int{1, 2, 8} {
		got := NewBuilder(20)
		got.AddEdgeBlocks(workers, blocks, dblocks)
		graphsIdentical(t, want.Build(), got.Build())
	}
}

func TestAddEdgeBlocksValidates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		srcs, dsts [][]int32
	}{
		{"block count mismatch", [][]int32{{1}}, [][]int32{{2}, {3}}},
		{"block length mismatch", [][]int32{{1}}, [][]int32{{2, 3}}},
		{"out of range", [][]int32{{1}}, [][]int32{{20}}},
		{"self loop", [][]int32{{4}}, [][]int32{{4}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			NewBuilder(10).AddEdgeBlocks(4, tc.srcs, tc.dsts)
		}()
	}
}

func TestAddEdgesBulkValidates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		srcs, dsts []int32
	}{
		{"length mismatch", []int32{1}, []int32{2, 3}},
		{"out of range", []int32{1}, []int32{20}},
		{"self loop", []int32{4}, []int32{4}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			NewBuilder(10).AddEdgesBulk(tc.srcs, tc.dsts)
		}()
	}
}
