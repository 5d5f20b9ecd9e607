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
	"sort"
	"sync"
)

// Half describes one directed half of an undirected edge as seen from a
// node: the identity of the other endpoint and the port number assigned to
// the edge at that other endpoint.
type Half struct {
	To         int // simulation identity of the neighbor
	RemotePort int // port number of this edge at the neighbor
}

// Graph is an immutable port-labeled graph. adj[v][p] is the half-edge
// leaving v through port p. Construct graphs with a Builder.
type Graph struct {
	adj [][]Half
	m   int // edge count, cached at Finalize: M() sits on per-round hot paths

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

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return g.m }

// Deg returns the degree of node v.
func (g *Graph) Deg(v int) int { return len(g.adj[v]) }

// At returns the half-edge leaving v through port p.
func (g *Graph) At(v, p int) Half { return g.adj[v][p] }

// Neighbor returns the node reached from v through port p.
func (g *Graph) Neighbor(v, p int) int { return g.adj[v][p].To }

// PortBack returns the port number at the other endpoint of the edge
// leaving v through port p.
func (g *Graph) PortBack(v, p int) int { return g.adj[v][p].RemotePort }

// PortTo returns the port number at u of the edge {u, v}, or -1 if u and v
// are not adjacent.
func (g *Graph) PortTo(u, v int) int {
	for p, h := range g.adj[u] {
		if h.To == v {
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

// Finalize validates the accumulated edges and returns the graph.
func (b *Builder) Finalize() (*Graph, error) {
	// A connected graph on n nodes has at least n−1 edges. Checking that
	// first bounds what a decoded header can make Finalize allocate by
	// the edges actually read, not by the node count it claims.
	if b.n > 1 && len(b.edges) < b.n-1 {
		return nil, fmt.Errorf("graph: not connected")
	}
	type portKey struct{ v, p int }
	seenPort := make(map[portKey]bool)
	seenEdge := make(map[[2]int]bool)
	adjPorts := make([]map[int]Half, b.n)
	for i := range adjPorts {
		adjPorts[i] = make(map[int]Half)
	}
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
		lo, hi := e.u, e.v
		if lo > hi {
			lo, hi = hi, lo
		}
		if seenEdge[[2]int{lo, hi}] {
			return nil, fmt.Errorf("graph: parallel edge {%d,%d}", e.u, e.v)
		}
		seenEdge[[2]int{lo, hi}] = true
		if seenPort[portKey{e.u, e.pu}] {
			return nil, fmt.Errorf("graph: port %d reused at node %d", e.pu, e.u)
		}
		if seenPort[portKey{e.v, e.pv}] {
			return nil, fmt.Errorf("graph: port %d reused at node %d", e.pv, e.v)
		}
		seenPort[portKey{e.u, e.pu}] = true
		seenPort[portKey{e.v, e.pv}] = true
		adjPorts[e.u][e.pu] = Half{To: e.v, RemotePort: e.pv}
		adjPorts[e.v][e.pv] = Half{To: e.u, RemotePort: e.pu}
	}
	g := &Graph{adj: make([][]Half, b.n), m: len(seenEdge)}
	for v, ports := range adjPorts {
		d := len(ports)
		g.adj[v] = make([]Half, d)
		for p, h := range ports {
			if p >= d {
				return nil, fmt.Errorf("graph: node %d has degree %d but uses port %d", v, d, p)
			}
			g.adj[v][p] = h
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
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if dist[h.To] < 0 {
				dist[h.To] = dist[u] + 1
				queue = append(queue, h.To)
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
// smallest port number at u.
func (g *Graph) CanonicalBFSTree(root int) []TreeEdge {
	dist := g.BFSDist(root)
	edges := make([]TreeEdge, 0, g.N()-1)
	for u := 0; u < g.N(); u++ {
		if u == root {
			continue
		}
		for p := 0; p < g.Deg(u); p++ {
			h := g.adj[u][p]
			if dist[h.To] == dist[u]-1 {
				edges = append(edges, TreeEdge{
					Parent:     h.To,
					Child:      u,
					PortParent: h.RemotePort,
					PortChild:  p,
				})
				break
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Parent != edges[j].Parent {
			return edges[i].Parent < edges[j].Parent
		}
		return edges[i].PortParent < edges[j].PortParent
	})
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
		h := g.adj[cur][p]
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
			gh, hh := g.adj[u][p], h.adj[fu][p]
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
