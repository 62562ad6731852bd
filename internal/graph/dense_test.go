package graph

import (
	"testing"

	"meg/internal/bitset"
)

func TestDenseRows(t *testing.T) {
	// 70 nodes crosses the one-word row boundary.
	g := Cycle(70)
	d := NewDenseRows(g, 1)
	if d.N() != 70 {
		t.Fatalf("N = %d", d.N())
	}
	for u := 0; u < 70; u++ {
		row := d.Row(u)
		if len(row) != 2 {
			t.Fatalf("row stride %d, want 2 words", len(row))
		}
		for v := 0; v < 70; v++ {
			got := row[v>>6]&(1<<(uint(v)&63)) != 0
			if got != g.HasEdge(u, v) {
				t.Fatalf("row[%d] bit %d = %v, HasEdge = %v", u, v, got, g.HasEdge(u, v))
			}
		}
	}
}

func TestDenseRowsIntersects(t *testing.T) {
	g := Star(80)
	d := NewDenseRows(g, 1)
	s := bitset.New(80)
	s.Add(0) // the hub
	for u := 1; u < 80; u++ {
		if !d.Intersects(u, s) {
			t.Fatalf("leaf %d should see informed hub", u)
		}
	}
	if d.Intersects(0, s) {
		t.Fatal("hub has no informed neighbor (only itself)")
	}
	s.Clear()
	s.Add(79)
	if !d.Intersects(0, s) {
		t.Fatal("hub should see informed leaf 79 (second word)")
	}
	if d.Intersects(5, s) {
		t.Fatal("leaves are not adjacent to each other")
	}
}
