package geommeg

import (
	"testing"

	"meg/internal/rng"
)

// TestSnapshotParallelismByteIdentical pins the parallel cell sweep's
// contract: the CSR snapshot — adjacency order included — is identical
// for every worker count, because per-block edge buffers concatenate in
// the serial emission order.
func TestSnapshotParallelismByteIdentical(t *testing.T) {
	cfg := Config{N: 3000, R: 4, MoveRadius: 2}
	serial := MustNew(cfg)
	serial.SetParallelism(1)
	sharded := MustNew(cfg)
	sharded.SetParallelism(8)
	serial.Reset(rng.New(3))
	sharded.Reset(rng.New(3))
	for s := 0; s < 6; s++ {
		ga, gb := serial.Graph(), sharded.Graph()
		if ga.N() != gb.N() || ga.M() != gb.M() {
			t.Fatalf("step %d: snapshot shapes differ: m=%d vs %d", s, ga.M(), gb.M())
		}
		for u := 0; u < cfg.N; u++ {
			na, nb := ga.Neighbors(u), gb.Neighbors(u)
			if len(na) != len(nb) {
				t.Fatalf("step %d: node %d degree %d vs %d", s, u, len(na), len(nb))
			}
			for i := range na {
				if na[i] != nb[i] {
					t.Fatalf("step %d: node %d adjacency order differs at %d", s, u, i)
				}
			}
		}
		serial.Step()
		sharded.Step()
	}
}

// TestWalkParallelismByteIdentical pins the sharded walk's contract
// directly on positions: because every node's round decisions come
// from the counter stream keyed (node, round), P1 and P8 walks — lazy
// and eager — land every node on the same lattice point, step after
// step.
func TestWalkParallelismByteIdentical(t *testing.T) {
	for _, jump := range []float64{1, 0.2} {
		cfg := Config{N: 2000, R: 4, MoveRadius: 2, Jump: jump}
		serial := MustNew(cfg)
		serial.SetParallelism(1)
		sharded := MustNew(cfg)
		sharded.SetParallelism(8)
		serial.Reset(rng.New(9))
		sharded.Reset(rng.New(9))
		for s := 0; s < 8; s++ {
			serial.Step()
			sharded.Step()
			for u := 0; u < cfg.N; u++ {
				if serial.pos[u].x != sharded.pos[u].x || serial.pos[u].y != sharded.pos[u].y {
					t.Fatalf("jump=%g step %d: node %d at (%d,%d) vs (%d,%d)",
						jump, s, u, serial.pos[u].x, serial.pos[u].y, sharded.pos[u].x, sharded.pos[u].y)
				}
			}
		}
	}
}

// TestLazyWalkHoldsMostNodes sanity-checks the lazy walk: with a small
// jump probability, most nodes hold their position each round.
func TestLazyWalkHoldsMostNodes(t *testing.T) {
	cfg := Config{N: 4000, R: 4, MoveRadius: 2, Jump: 0.05}
	m := MustNew(cfg)
	m.Reset(rng.New(4))
	moved := m.advance()
	if moved == 0 || moved > cfg.N/5 {
		t.Fatalf("jump=0.05 moved %d of %d nodes", moved, cfg.N)
	}
}
