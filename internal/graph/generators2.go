package graph

import "fmt"

// BinaryTree returns the complete binary tree of the given height
// (height >= 1), with 2^(height+1)-1 nodes. At an internal node, port 0
// leads to the left child and port 1 to the right child; non-root
// internal nodes use port 2 toward the parent. Note that the port
// numbering breaks the left/right topological symmetry (a child knows
// whether its parent reaches it through port 0 or 1), so this graph is
// feasible even though the unlabeled tree is symmetric.
func BinaryTree(height int) *Graph {
	if height < 1 {
		panic("graph.BinaryTree: need height >= 1")
	}
	n := 1<<(height+1) - 1
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		l, r := 2*v+1, 2*v+2
		if l >= n {
			continue
		}
		childBack := func(c int) int {
			if 2*c+1 >= n {
				return 0 // leaf: single port
			}
			return 2 // internal child: ports 0,1 to own children, 2 up
		}
		b.AddEdge(v, 0, l, childBack(l))
		b.AddEdge(v, 1, r, childBack(r))
	}
	return b.MustFinalize()
}

// Caterpillar returns a spine path of the given length with legs[i]
// leaves attached at spine node i. Spine ports: 0 toward the smaller
// spine index (or the first leaf for node 0), then legs in order. To
// keep the port rule simple: at spine node i, port 0 goes to the
// previous spine node (for i > 0), the next port to the next spine node
// (for i < len-1), and the remaining ports to its leaves. Leaves use
// port 0.
func Caterpillar(legs []int) *Graph {
	spine := len(legs)
	if spine < 2 {
		panic("graph.Caterpillar: need a spine of length >= 2")
	}
	n := spine
	for _, l := range legs {
		if l < 0 {
			panic("graph.Caterpillar: negative leg count")
		}
		n += l
	}
	b := NewBuilder(n)
	nextPort := make([]int, spine)
	for i := 0; i+1 < spine; i++ {
		pu := nextPort[i]
		nextPort[i]++
		// At i+1 the backward edge always takes its port 0.
		pv := nextPort[i+1]
		nextPort[i+1]++
		b.AddEdge(i, pu, i+1, pv)
	}
	leaf := spine
	for i, l := range legs {
		for j := 0; j < l; j++ {
			b.AddEdge(i, nextPort[i], leaf, 0)
			nextPort[i]++
			leaf++
		}
	}
	return b.MustFinalize()
}

// Wheel returns the wheel graph: a cycle of size k >= 3 plus a hub
// adjacent to every cycle node. Hub ports 0..k-1 in cycle order; cycle
// nodes use ports 0 (clockwise), 1 (counterclockwise), 2 (hub). The hub
// port numbers distinguish the cycle nodes, so the wheel is feasible
// despite its rotational topology.
func Wheel(k int) *Graph {
	if k < 3 {
		panic("graph.Wheel: need k >= 3")
	}
	b := NewBuilder(k + 1)
	hub := k
	for i := 0; i < k; i++ {
		b.AddEdge(i, 0, (i+1)%k, 1)
		b.AddEdge(hub, i, i, 2)
	}
	return b.MustFinalize()
}

// WheelWithTail attaches a path of t >= 1 nodes to cycle node 0 of a
// wheel, which makes it feasible.
func WheelWithTail(k, t int) *Graph {
	if k < 3 || t < 1 {
		panic("graph.WheelWithTail: need k >= 3, t >= 1")
	}
	b := NewBuilder(k + 1 + t)
	hub := k
	for i := 0; i < k; i++ {
		b.AddEdge(i, 0, (i+1)%k, 1)
		b.AddEdge(hub, i, i, 2)
	}
	b.AddEdge(0, 3, k+1, 0)
	for i := 1; i < t; i++ {
		b.AddEdge(k+i, 1, k+i+1, 0)
	}
	return b.MustFinalize()
}

// Broom returns a star of s >= 2 leaves whose center extends into a path
// of t >= 1 nodes — a classic feasible tree with adjustable diameter.
func Broom(s, t int) *Graph {
	if s < 2 || t < 1 {
		panic("graph.Broom: need s >= 2, t >= 1")
	}
	b := NewBuilder(1 + s + t)
	for j := 0; j < s; j++ {
		b.AddEdge(0, j, 1+j, 0)
	}
	b.AddEdge(0, s, 1+s, 0)
	for i := 1; i < t; i++ {
		b.AddEdge(s+i, 1, s+i+1, 0)
	}
	return b.MustFinalize()
}

// mustDeg is a tiny assertion helper for generator tests.
func mustDeg(g *Graph, v, want int) error {
	if g.Deg(v) != want {
		return fmt.Errorf("graph: node %d degree %d, want %d", v, g.Deg(v), want)
	}
	return nil
}

// RelabelNodes returns a copy of g whose simulation identities have been
// permuted by perm (new id of node v is perm[v]). The anonymous graph is
// unchanged — ports are preserved — so every view-level quantity must be
// invariant under relabeling; tests use this to check canonicity.
func RelabelNodes(g *Graph, perm []int) *Graph {
	if len(perm) != g.N() {
		panic("graph.RelabelNodes: permutation length mismatch")
	}
	seen := make([]bool, g.N())
	for _, p := range perm {
		if p < 0 || p >= g.N() || seen[p] {
			panic("graph.RelabelNodes: not a permutation")
		}
		seen[p] = true
	}
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Deg(v); p++ {
			h := g.At(v, p)
			if v < h.To {
				b.AddEdge(perm[v], p, perm[h.To], h.RemotePort)
			}
		}
	}
	return b.MustFinalize()
}
