// Package graph provides the static undirected graph snapshot type that
// every evolving-graph model in this repository materializes once per
// time step, together with the algorithms the experiments need: BFS,
// connected components, degree statistics, and neighborhood queries.
//
// Snapshots use a compressed sparse row (CSR) layout: two flat slices
// instead of per-node adjacency slices, which keeps per-step allocation
// and GC pressure low when a simulation rebuilds the graph thousands of
// times. The models build every snapshot with an Assembler, which
// writes the CSR from ascending upper rows into arrays it reuses from
// round to round; a Builder takes an arbitrary edge list instead.
package graph

import "fmt"

// Graph is an undirected graph over the node set [0, n) in CSR form.
// Both directions of every edge are stored, so Degree and Neighbors are
// O(1) and O(deg) respectively.
//
// Two storage layouts share the type: the packed layout Build produces
// (lens == nil; the neighbor list of u is adj[offs[u]:offs[u+1]]) and
// the slack layout Mutable maintains (lens non-nil; row u occupies the
// capacity range adj[offs[u]:offs[u+1]] but only its first lens[u]
// entries are live). All read methods work on both.
type Graph struct {
	n      int
	offs   []int32 // len n+1; row u's storage is adj[offs[u]:offs[u+1]]
	adj    []int32
	lens   []int32 // nil for packed CSR; else live row lengths (slack layout)
	mCount int     // number of undirected edges
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.mCount }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	if g.lens != nil {
		return int(g.lens[u])
	}
	return int(g.offs[u+1] - g.offs[u])
}

// Neighbors returns the neighbor list of u. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	off := g.offs[u]
	if g.lens != nil {
		return g.adj[off : off+g.lens[u]]
	}
	return g.adj[off:g.offs[u+1]]
}

// HasEdge reports whether {u, v} is an edge. It scans u's (or v's,
// whichever is shorter) neighbor list.
func (g *Graph) HasEdge(u, v int) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// MaxDegree returns the largest degree in the graph (0 for empty
// graphs).
func (g *Graph) MaxDegree() int {
	best := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(u); d > best {
			best = d
		}
	}
	return best
}

// AvgDegree returns the average degree 2m/n, or 0 for an empty node set.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.mCount) / float64(g.n)
}

// Builder accumulates an arbitrary undirected edge list and builds it
// into a CSR graph in fresh arrays. Builders may be reused: Reset
// clears the edge list but keeps its buffers. The evolving-graph
// models build their per-round snapshots with an Assembler instead.
type Builder struct {
	n      int
	srcs   []int32
	dsts   []int32
	counts []int32
}

// NewBuilder returns a Builder for graphs over [0, n).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, counts: make([]int32, n+1)}
}

// N returns the node count the builder was created with.
func (b *Builder) N() int { return b.n }

// Reset clears accumulated edges, optionally resizing the node universe.
func (b *Builder) Reset(n int) {
	if n < 0 {
		panic("graph: negative node count")
	}
	b.n = n
	b.srcs = b.srcs[:0]
	b.dsts = b.dsts[:0]
	if cap(b.counts) < n+1 {
		b.counts = make([]int32, n+1)
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops and duplicate
// insertions are the caller's responsibility to avoid (the models in
// this repository never produce them). It panics if either endpoint is
// out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	if u == v {
		panic("graph: self-loop")
	}
	b.srcs = append(b.srcs, int32(u))
	b.dsts = append(b.dsts, int32(v))
}

// Build produces the CSR snapshot for the recorded edges using a
// counting sort over endpoints; O(n + m) time.
func (b *Builder) Build() *Graph {
	n, m := b.n, len(b.srcs)
	counts := b.counts[:n+1]
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < m; i++ {
		counts[b.srcs[i]+1]++
		counts[b.dsts[i]+1]++
	}
	offs := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + counts[i+1]
	}
	adj := make([]int32, 2*m)
	cursor := make([]int32, n)
	copy(cursor, offs[:n])
	for i := 0; i < m; i++ {
		u, v := b.srcs[i], b.dsts[i]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	return &Graph{n: n, offs: offs, adj: adj, mCount: m}
}

// FromEdges builds a graph over [0, n) from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Empty returns the edgeless graph over [0, n).
func Empty(n int) *Graph { return NewBuilder(n).Build() }

// Path returns the path graph 0-1-…-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Cycle returns the cycle graph on n ≥ 3 nodes.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs at least 3 nodes")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Complete returns the complete graph on n nodes.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// BFS computes hop distances from src; unreachable nodes get -1.
// The optional dist slice is reused when it has length n.
func (g *Graph) BFS(src int, dist []int32) []int32 {
	if dist == nil || len(dist) != g.n {
		dist = make([]int32, g.n)
	}
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, g.n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest finite BFS distance from src and
// whether every node is reachable.
func (g *Graph) Eccentricity(src int) (ecc int, connected bool) {
	dist := g.BFS(src, nil)
	connected = true
	for _, d := range dist {
		if d < 0 {
			connected = false
			continue
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc, connected
}

// Components labels each node with a component id in [0, k) and returns
// the labels and the number k of connected components.
func (g *Graph) Components() (labels []int32, k int) {
	labels = make([]int32, g.n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(k)
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(int(u)) {
				if labels[v] < 0 {
					labels[v] = int32(k)
					queue = append(queue, v)
				}
			}
		}
		k++
	}
	return labels, k
}

// Connected reports whether the graph has exactly one connected
// component (true for the empty graph on ≤ 1 nodes).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	_, k := g.Components()
	return k == 1
}

// LargestComponentSize returns the size of the largest connected
// component (0 for an empty node set).
func (g *Graph) LargestComponentSize() int {
	if g.n == 0 {
		return 0
	}
	labels, k := g.Components()
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}

// Diameter returns the exact diameter (largest finite pairwise hop
// distance) by running BFS from every node: O(n·m). Use only on small
// graphs. The second result reports whether the graph is connected; for
// disconnected graphs the diameter is taken within components.
func (g *Graph) Diameter() (int, bool) {
	diam := 0
	connected := true
	dist := make([]int32, g.n)
	for s := 0; s < g.n; s++ {
		dist = g.BFS(s, dist)
		for _, d := range dist {
			if d < 0 {
				connected = false
			} else if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam, connected
}

// DegreeHistogram returns counts[d] = number of nodes with degree d.
func (g *Graph) DegreeHistogram() []int {
	h := make([]int, g.MaxDegree()+1)
	for u := 0; u < g.n; u++ {
		h[g.Degree(u)]++
	}
	return h
}
