package graph

import (
	"math/rand"
	"slices"
)

// Direct constructors: the Builder takes arbitrary edge lists and so
// validates every one (two passes over the edges, a per-node stamp for
// parallel edges, a BFS for connectivity). The families below are
// written straight into the CSR of newSlabGraph instead, with
// sort+dedup over packed uint64 edges where a construction needs it:
// correctness comes from the construction (ports are permutations by
// construction, the spanning tree gives connectivity), so there is
// nothing left to validate. The Builder-based forms they replaced live
// in stream_test.go as the reference TestStreamMatchesBuilder pins them
// to, bit for bit, including the rand stream they consume.

// Torus returns the w x h toroidal grid (w, h >= 3) with port order
// left, right, up, down at every node. It is vertex-transitive with a
// symmetric port pattern, hence infeasible — a second negative test
// case beyond Hypercube.
func Torus(w, h int) *Graph {
	if w < 3 || h < 3 {
		panic("graph.Torus: need w, h >= 3")
	}
	n := w * h
	deg := make([]int32, n)
	for v := range deg {
		deg[v] = 4
	}
	g := newSlabGraph(deg, 2*n)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := x + w*y
			g.set(v, 0, (x+w-1)%w+w*y, 1)
			g.set(v, 1, (x+1)%w+w*y, 0)
			g.set(v, 2, x+w*((y+h-1)%h), 3)
			g.set(v, 3, x+w*((y+1)%h), 2)
		}
	}
	return g
}

// gridPort returns the port of the direction dir (0 left, 1 right, 2 up,
// 3 down) at grid node (x, y): directions are numbered in that fixed
// order restricted to the ones that exist.
func gridPort(x, y, w, h, dir int) int {
	p := 0
	if dir > 0 && x > 0 {
		p++
	}
	if dir > 1 && x < w-1 {
		p++
	}
	if dir > 2 && y > 0 {
		p++
	}
	return p
}

// Grid returns the w x h grid graph. Node (x, y) is x + w*y. Ports are
// assigned in the fixed direction order left, right, up, down restricted
// to directions that exist, so corner and edge nodes are distinguishable.
func Grid(w, h int) *Graph {
	if w < 1 || h < 1 || w*h < 2 {
		panic("graph.Grid: need at least 2 nodes")
	}
	n := w * h
	deg := make([]int32, n)
	m := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := 0
			if x > 0 {
				d++
			}
			if x < w-1 {
				d++
			}
			if y > 0 {
				d++
			}
			if y < h-1 {
				d++
			}
			deg[x+w*y] = int32(d)
			m += d
		}
	}
	g := newSlabGraph(deg, m/2)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := x + w*y
			if x > 0 {
				g.set(v, gridPort(x, y, w, h, 0), v-1, gridPort(x-1, y, w, h, 1))
			}
			if x < w-1 {
				g.set(v, gridPort(x, y, w, h, 1), v+1, gridPort(x+1, y, w, h, 0))
			}
			if y > 0 {
				g.set(v, gridPort(x, y, w, h, 2), v-w, gridPort(x, y-1, w, h, 3))
			}
			if y < h-1 {
				g.set(v, gridPort(x, y, w, h, 3), v+w, gridPort(x, y+1, w, h, 2))
			}
		}
	}
	return g
}

// GridStream is Grid.
//
// Deprecated: use Grid, which writes the CSR directly.
func GridStream(w, h int) *Graph { return Grid(w, h) }

// Hypercube returns the d-dimensional hypercube with port i corresponding
// to dimension i at every node. It is vertex-transitive with symmetric
// port labeling, hence infeasible: a canonical negative test case.
func Hypercube(d int) *Graph {
	if d < 1 {
		panic("graph.Hypercube: need d >= 1")
	}
	n := 1 << uint(d)
	deg := make([]int32, n)
	for v := range deg {
		deg[v] = int32(d)
	}
	g := newSlabGraph(deg, n*d/2)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			g.set(v, i, v^(1<<uint(i)), i)
		}
	}
	return g
}

// permInto writes rand.Perm(n)'s permutation into p[:n] while consuming
// the rng exactly as rand.Perm does, without allocating.
func permInto(rng *rand.Rand, p []int32, n int) {
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = int32(i)
	}
}

// ShufflePorts returns a copy of g whose port numbers have been permuted
// uniformly at random at every node (deterministically from seed). The
// underlying topology is unchanged; views and the election index
// generally change.
func ShufflePorts(g *Graph, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	deg := make([]int32, n)
	// One flat permutation slab over g's half-edge indices, consumed in
	// node order as rand.Perm per node would draw it: perm[off[v]+p] is
	// the new number of v's port p.
	perm := make([]int32, len(g.to))
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Deg(v))
		permInto(rng, perm[g.off[v]:], g.Deg(v))
	}
	out := newSlabGraph(deg, g.M())
	for v := 0; v < n; v++ {
		for i := g.off[v]; i < g.off[v+1]; i++ {
			u := g.to[i]
			out.set(v, int(perm[i]), int(u), int(perm[g.off[u]+g.rport[i]]))
		}
	}
	return out
}

// RandomConnected returns a random connected graph on n >= 2 nodes with
// approximately extra additional edges beyond a random spanning tree,
// with uniformly random port assignments, generated deterministically
// from seed: a spanning tree over a node permutation, extra uniform
// edges, a uniform port permutation per node. Such graphs are feasible
// with overwhelming probability; callers that need feasibility check it
// with the election index (part.ElectionIndex). Edge bookkeeping is a
// packed-uint64 sort+compact and the adjacency is written straight into
// the CSR, so construction is O(m log m) time and O(m) memory — the
// path that makes n=10M graphs constructible before refinement even
// starts.
func RandomConnected(n, extra int, seed int64) *Graph {
	if n < 2 {
		panic("graph.RandomConnected: need n >= 2")
	}
	rng := rand.New(rand.NewSource(seed))

	// The draws: a spanning tree over rng.Perm(n), then extra (u, v)
	// pairs with self-loops skipped.
	edges := make([]uint64, 0, n-1+extra)
	pack := func(u, v int) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		edges = append(edges, pack(perm[i], perm[rng.Intn(i)]))
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, pack(u, v))
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	m := len(edges)

	deg := make([]int32, n)
	for _, e := range edges {
		deg[e>>32]++
		deg[e&0xffffffff]++
	}
	g := newSlabGraph(deg, m)
	off := g.off

	// Incidence in ascending (u, v) edge order per node: the i-th port
	// draw of a node lands on its i-th edge in that order.
	inc := make([]int32, 2*m)
	slot := make([]int32, n)
	copy(slot, off[:n])
	for i, e := range edges {
		u, v := int32(e>>32), int32(e&0xffffffff)
		inc[slot[u]] = int32(i)
		slot[u]++
		inc[slot[v]] = int32(i)
		slot[v]++
	}

	// Port permutation per node, drawn in node order and recorded per
	// edge endpoint.
	portLo := make([]int32, m) // port at the smaller endpoint
	portHi := make([]int32, m) // port at the larger endpoint
	pbuf := make([]int32, slices.Max(deg))
	for v := 0; v < n; v++ {
		permInto(rng, pbuf, int(deg[v]))
		for i := off[v]; i < off[v+1]; i++ {
			e := inc[i]
			if int(edges[e]>>32) == v {
				portLo[e] = pbuf[i-off[v]]
			} else {
				portHi[e] = pbuf[i-off[v]]
			}
		}
	}

	for i, e := range edges {
		u, v := int(e>>32), int(e&0xffffffff)
		g.set(u, int(portLo[i]), v, int(portHi[i]))
		g.set(v, int(portHi[i]), u, int(portLo[i]))
	}
	return g
}

// RandomConnectedStream is RandomConnected.
//
// Deprecated: use RandomConnected, which writes the CSR directly.
func RandomConnectedStream(n, extra int, seed int64) *Graph { return RandomConnected(n, extra, seed) }
