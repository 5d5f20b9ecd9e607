package graph

import "fmt"

// Ring returns the cycle on n >= 3 nodes with ports 0, 1 in clockwise
// order at each node (port 0 leads clockwise). Rings are symmetric, hence
// infeasible for leader election; they are used as substrates by the
// lower-bound families.
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph.Ring: need n >= 3, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, 0, (i+1)%n, 1)
	}
	return b.MustFinalize()
}

// Path returns the path on n >= 2 nodes 0-1-...-(n-1). Interior nodes use
// port 0 toward the smaller-numbered neighbor and port 1 toward the
// larger; endpoints use their only port 0.
func Path(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph.Path: need n >= 2, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		pu := 1
		if i == 0 {
			pu = 0
		}
		pv := 0
		b.AddEdge(i, pu, i+1, pv)
	}
	return b.MustFinalize()
}

// cliquePort returns the canonical port at node i for the edge to node j
// inside a clique whose nodes are numbered 0..n-1: neighbors are assigned
// ports in increasing node order.
func cliquePort(i, j int) int {
	if j < i {
		return j
	}
	return j - 1
}

// Clique returns the complete graph on n >= 2 nodes with the canonical
// port assignment: at node i, the edge to node j has port j if j < i and
// j-1 otherwise.
func Clique(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph.Clique: need n >= 2, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, cliquePort(i, j), j, cliquePort(j, i))
		}
	}
	return b.MustFinalize()
}

// Star returns the k-star S_k of the paper (Proposition 4.1): a tree with
// k leaves attached to a central node. Node 0 is the central node. For
// k = 0 it is the one-node graph and for k = 1 the two-node graph.
func Star(k int) *Graph {
	b := NewBuilder(k + 1)
	for i := 1; i <= k; i++ {
		b.AddEdge(0, i-1, i, 0)
	}
	return b.MustFinalize()
}

// CompleteBipartite returns K_{a,b} with left nodes 0..a-1 and right nodes
// a..a+b-1 and canonical ports (increasing opposite-side order).
func CompleteBipartite(a, b int) *Graph {
	if a < 1 || b < 1 {
		panic("graph.CompleteBipartite: need a, b >= 1")
	}
	bb := NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bb.AddEdge(i, j, a+j, i)
		}
	}
	return bb.MustFinalize()
}

// Lollipop returns a clique of size k >= 3 with a path of t >= 1 extra
// nodes attached to clique node 0. It is feasible (a unique degree
// profile) and has a conveniently tunable diameter.
func Lollipop(k, t int) *Graph {
	if k < 3 || t < 1 {
		panic("graph.Lollipop: need k >= 3, t >= 1")
	}
	b := NewBuilder(k + t)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, cliquePort(i, j), j, cliquePort(j, i))
		}
	}
	// Attach the path: clique node 0 gets extra port k-1.
	b.AddEdge(0, k-1, k, 0)
	for i := 0; i+1 < t; i++ {
		b.AddEdge(k+i, 1, k+i+1, 0)
	}
	return b.MustFinalize()
}
