// Package graph implements the network model of the paper: simple,
// undirected, connected graphs whose nodes are anonymous but whose edges
// carry a distinct port number at each endpoint, from {0, ..., deg(v)-1}
// at a node v of degree deg(v). Port numbering is purely local: there is
// no relation between the two port numbers of an edge.
//
// Node identifiers used by this package (ints 0..n-1) are a simulation
// artifact only: the distributed algorithms in internal/algorithms never
// observe them; they exist so that the oracle and the test harness can
// talk about the graph.
package graph

import (
	"fmt"
	"math"
	"sync"
)

// Half describes one directed half of an undirected edge as seen from a
// node: the identity of the other endpoint and the port number assigned to
// the edge at that other endpoint.
type Half struct {
	To         int // simulation identity of the neighbor
	RemotePort int // port number of this edge at the neighbor
}

// Graph is an immutable port-labeled graph, stored as one int32 CSR:
// the half-edge leaving v through port p has index off[v]+p, to[i] is
// its far end and rport[i] the port number there. Every layer that
// walks the graph by index (refinement, delay models, shard workers)
// reads these arrays through CSR instead of copying them. Construct
// graphs with a Builder, or with a generator such as Grid or
// RandomConnected that writes the CSR directly.
type Graph struct {
	off   []int32 // n+1 row offsets
	to    []int32 // 2m neighbor ids
	rport []int32 // 2m remote ports

	// Diameter caches. The exact diameter is an all-pairs BFS —
	// O(n·(n+m)) — so it is memoized on first use; the double-sweep
	// bounds cost two BFS runs and are what the election entry points
	// use for round budgets (see DiameterBounds).
	diamOnce   sync.Once
	diam       int
	boundsOnce sync.Once
	diamLo     int
	diamHi     int
}

// newSlabGraph returns a graph with the given degrees and m edges: off
// is the prefix sum of deg, to and rport are zeroed for the caller to
// fill through set.
func newSlabGraph(deg []int32, m int) *Graph {
	if len(deg) > math.MaxInt32 || 2*m > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes and %d edges exceed the int32 layout", len(deg), m))
	}
	g := &Graph{off: make([]int32, len(deg)+1), to: make([]int32, 2*m), rport: make([]int32, 2*m)}
	for v, d := range deg {
		g.off[v+1] = g.off[v] + d
	}
	return g
}

// set writes the half-edge leaving v through port p.
func (g *Graph) set(v, p, to, rport int) {
	lo, hi := g.off[v], g.off[v+1]
	g.to[lo:hi][p] = int32(to)
	g.rport[lo:hi][p] = int32(rport)
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.to) / 2 }

// Deg returns the degree of node v.
func (g *Graph) Deg(v int) int { return int(g.off[v+1] - g.off[v]) }

// CSR returns the graph's own arrays: node v's half-edges are indices
// off[v] .. off[v+1]-1 in port order, to[i] is the neighbor reached
// and rport[i] the port number at it. Callers must not modify them.
func (g *Graph) CSR() (off, to, rport []int32) { return g.off, g.to, g.rport }

// At returns the half-edge leaving v through port p. Like Neighbor and
// PortBack it indexes v's row, so a p outside [0, Deg(v)) panics
// instead of reading the next node's half-edge.
func (g *Graph) At(v, p int) Half {
	lo, hi := g.off[v], g.off[v+1]
	return Half{To: int(g.to[lo:hi][p]), RemotePort: int(g.rport[lo:hi][p])}
}

// Neighbor returns the node reached from v through port p.
func (g *Graph) Neighbor(v, p int) int { return int(g.to[g.off[v]:g.off[v+1]][p]) }

// PortBack returns the port number at the other endpoint of the edge
// leaving v through port p.
func (g *Graph) PortBack(v, p int) int { return int(g.rport[g.off[v]:g.off[v+1]][p]) }

// PortTo returns the port number at u of the edge {u, v}, or -1 if u and v
// are not adjacent.
func (g *Graph) PortTo(u, v int) int {
	for p, w := range g.to[g.off[u]:g.off[u+1]] {
		if int(w) == v {
			return p
		}
	}
	return -1
}

// Builder assembles a port-labeled graph edge by edge and validates the
// model invariants on Finalize: simplicity (no loops, no parallel edges),
// port numbers forming exactly {0..deg-1} at every node, and connectivity.
type Builder struct {
	n     int
	edges []builderEdge
}

type builderEdge struct {
	u, pu, v, pv int
}

// NewBuilder returns a builder for a graph on n nodes (n >= 1).
func NewBuilder(n int) *Builder {
	if n < 1 {
		panic(fmt.Sprintf("graph: invalid node count %d", n))
	}
	return &Builder{n: n}
}

// N returns the number of nodes the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge records the undirected edge {u, v} with port pu at u and pv at v.
func (b *Builder) AddEdge(u, pu, v, pv int) *Builder {
	b.edges = append(b.edges, builderEdge{u, pu, v, pv})
	return b
}

// Finalize validates the accumulated edges and returns the graph. It
// writes the CSR in passes over the edges in input order, so an input
// with several faults always reports the same one: the first checks
// ranges, loops and signs and counts degrees; the second places every
// half-edge at its port's slot, where a port at or above the degree or
// a slot already filled is an error; then a stamp per node finds
// parallel edges and a BFS checks connectivity.
func (b *Builder) Finalize() (*Graph, error) {
	// A connected graph on n nodes has at least n−1 edges. Checking that
	// first bounds what a decoded header can make Finalize allocate by
	// the edges actually read, not by the node count it claims.
	if b.n > 1 && len(b.edges) < b.n-1 {
		return nil, fmt.Errorf("graph: not connected")
	}
	deg := make([]int32, b.n)
	for _, e := range b.edges {
		if e.u < 0 || e.u >= b.n || e.v < 0 || e.v >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.u, e.v, b.n)
		}
		if e.u == e.v {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.u)
		}
		if e.pu < 0 || e.pv < 0 {
			return nil, fmt.Errorf("graph: negative port on edge {%d,%d}", e.u, e.v)
		}
		deg[e.u]++
		deg[e.v]++
	}
	g := newSlabGraph(deg, len(b.edges))
	for i := range g.to {
		g.to[i] = -1
	}
	place := func(v, p, to, rport int) error {
		if d := g.Deg(v); p >= d {
			return fmt.Errorf("graph: node %d has degree %d but uses port %d", v, d, p)
		}
		if g.to[int(g.off[v])+p] >= 0 {
			return fmt.Errorf("graph: port %d reused at node %d", p, v)
		}
		g.set(v, p, to, rport)
		return nil
	}
	for _, e := range b.edges {
		if err := place(e.u, e.pu, e.v, e.pv); err != nil {
			return nil, err
		}
		if err := place(e.v, e.pv, e.u, e.pu); err != nil {
			return nil, err
		}
	}
	// deg is free now: it becomes the stamp array, seen[u] = v+1 when u
	// was already met among v's neighbors.
	seen := deg
	clear(seen)
	for v := 0; v < b.n; v++ {
		for _, u := range g.to[g.off[v]:g.off[v+1]] {
			if seen[u] == int32(v+1) {
				return nil, fmt.Errorf("graph: parallel edge {%d,%d}", min(v, int(u)), max(v, int(u)))
			}
			seen[u] = int32(v + 1)
		}
	}
	if b.n > 1 && !g.Connected() {
		return nil, fmt.Errorf("graph: not connected")
	}
	return g, nil
}

// MustFinalize is Finalize for statically-correct constructions; it panics
// on error.
func (b *Builder) MustFinalize() *Graph {
	g, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return g
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return false
	}
	seen := 0
	for _, d := range g.BFSDist(0) {
		if d >= 0 {
			seen++
		}
	}
	return seen == g.N()
}

// BFSDist returns the array of hop distances from src; unreachable nodes
// (impossible in finalized graphs) get -1.
func (g *Graph) BFSDist(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	// Each node enters the queue once, so one allocation of n holds it.
	queue := make([]int32, 1, g.N())
	queue[0] = int32(src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.to[g.off[u]:g.off[u+1]] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Dist returns the hop distance between u and v.
func (g *Graph) Dist(u, v int) int { return g.BFSDist(u)[v] }

// Eccentricity returns the maximum distance from v to any node.
func (g *Graph) Eccentricity(v int) int {
	max := 0
	for _, d := range g.BFSDist(v) {
		if d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the diameter of the graph. The underlying all-pairs
// BFS — O(n·(n+m)) — runs once; the result is memoized, so algorithms
// that semantically need the exact D (DPlusPhiAdvice) no longer pay for
// it at every entry point. Callers that only need a round budget should
// prefer DiameterBounds.
func (g *Graph) Diameter() int {
	g.diamOnce.Do(func() {
		max := 0
		for v := 0; v < g.N(); v++ {
			if e := g.Eccentricity(v); e > max {
				max = e
			}
		}
		g.diam = max
	})
	return g.diam
}

// DiameterBounds returns lo <= D <= hi from a double BFS sweep in
// O(n+m): a BFS from node 0 finds a farthest node u (ecc(0) deep), and
// a second BFS from u gives lo = ecc(u) <= D; hi = 2·ecc(0) >= D by the
// triangle inequality. The bounds are memoized. Election entry points
// use hi for their round budgets — a budget only has to dominate D, so
// the quadratic exact diameter stays off their path.
func (g *Graph) DiameterBounds() (lo, hi int) {
	g.boundsOnce.Do(func() {
		ecc0, u := 0, 0
		for v, d := range g.BFSDist(0) {
			if d > ecc0 {
				ecc0, u = d, v
			}
		}
		g.diamLo, g.diamHi = g.Eccentricity(u), 2*ecc0
	})
	return g.diamLo, g.diamHi
}

// MaxDegree returns the maximum node degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Deg(v); d > max {
			max = d
		}
	}
	return max
}

// TreeEdge is an edge of a rooted spanning tree, carrying the graph's port
// numbers at both endpoints.
type TreeEdge struct {
	Parent     int
	Child      int
	PortParent int // port at Parent of the edge {Parent, Child}
	PortChild  int // port at Child of the edge {Parent, Child}
}

// CanonicalBFSTree returns the canonical BFS tree of g rooted at root, as
// used by the advice item A2 of the paper: the parent of each node u at
// BFS level i+1 is the level-i neighbor of u reachable through the
// smallest port number at u. Edges come sorted by (Parent, PortParent):
// after each node's port toward its parent is found, walking the parents
// in node order and their ports in order emits them in that order, in
// O(n+m) with no sort.
func (g *Graph) CanonicalBFSTree(root int) []TreeEdge {
	dist := g.BFSDist(root)
	up := make([]int32, g.N()) // u's smallest port toward level dist[u]-1
	for u := range up {
		for p, w := range g.to[g.off[u]:g.off[u+1]] {
			if dist[w] == dist[u]-1 {
				up[u] = int32(p)
				break
			}
		}
	}
	edges := make([]TreeEdge, 0, g.N()-1)
	for v := 0; v < g.N(); v++ {
		for q := range g.Deg(v) {
			u, pu := g.Neighbor(v, q), g.PortBack(v, q)
			if dist[u] == dist[v]+1 && up[u] == int32(pu) {
				edges = append(edges, TreeEdge{Parent: v, Child: u, PortParent: q, PortChild: pu})
			}
		}
	}
	return edges
}

// FollowPath walks a port sequence (p1, q1, ..., pk, qk) starting at node
// v: at each step it leaves the current node through port p and verifies
// that the arrival port is q. It returns the visited node sequence
// (including v) or an error if the sequence does not describe a path in g.
func (g *Graph) FollowPath(v int, ports []int) ([]int, error) {
	return g.AppendPath(make([]int, 0, len(ports)/2+1), v, ports)
}

// AppendPath is FollowPath writing into a caller-owned buffer, in the
// style of strconv.AppendInt: it appends the visited node sequence
// (including v) to dst and returns the extended slice, so a caller that
// checks many paths can reuse one buffer. On error the returned slice
// is nil.
func (g *Graph) AppendPath(dst []int, v int, ports []int) ([]int, error) {
	if len(ports)%2 != 0 {
		return nil, fmt.Errorf("graph: odd port sequence length %d", len(ports))
	}
	nodes := append(dst, v)
	cur := v
	for i := 0; i < len(ports); i += 2 {
		p, q := ports[i], ports[i+1]
		if p < 0 || p >= g.Deg(cur) {
			return nil, fmt.Errorf("graph: port %d invalid at node of degree %d", p, g.Deg(cur))
		}
		h := g.At(cur, p)
		if h.RemotePort != q {
			return nil, fmt.Errorf("graph: step %d: expected arrival port %d, edge has %d", i/2, q, h.RemotePort)
		}
		cur = h.To
		nodes = append(nodes, cur)
	}
	return nodes, nil
}

// IsSimplePath reports whether the node sequence visits no node twice.
func IsSimplePath(nodes []int) bool {
	seen := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Isomorphic reports whether g and h are isomorphic as port-labeled
// graphs, i.e. there is a bijection of nodes preserving adjacency and all
// port numbers at both endpoints. Because ports determine edges uniquely,
// fixing the image of one node forces the whole mapping, so the check
// anchors node 0 of g at every node of h.
func Isomorphic(g, h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for anchor := 0; anchor < h.N(); anchor++ {
		if mapFromAnchor(g, h, anchor) != nil {
			return true
		}
	}
	return false
}

// mapFromAnchor attempts the unique port-preserving mapping sending node 0
// of g to the given node of h, returning it or nil.
func mapFromAnchor(g, h *Graph, anchor int) []int {
	if g.Deg(0) != h.Deg(anchor) {
		return nil
	}
	f := make([]int, g.N())
	for i := range f {
		f[i] = -1
	}
	f[0] = anchor
	used := make([]bool, h.N())
	used[anchor] = true
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		fu := f[u]
		if g.Deg(u) != h.Deg(fu) {
			return nil
		}
		for p := 0; p < g.Deg(u); p++ {
			gh, hh := g.At(u, p), h.At(fu, p)
			if gh.RemotePort != hh.RemotePort {
				return nil
			}
			if f[gh.To] == -1 {
				if used[hh.To] {
					return nil
				}
				f[gh.To] = hh.To
				used[hh.To] = true
				queue = append(queue, gh.To)
			} else if f[gh.To] != hh.To {
				return nil
			}
		}
	}
	for _, v := range f {
		if v == -1 {
			return nil
		}
	}
	return f
}
