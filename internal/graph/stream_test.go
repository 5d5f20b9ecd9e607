package graph

import (
	"math/rand"
	"testing"
)

// The Builder-based constructors that the direct CSR constructors
// replaced, kept as the reference TestStreamMatchesBuilder pins them to.
// They are written for clarity, with maps of their own, and every graph
// they build passes the Builder's full validation.

// referenceTorus is Torus through the Builder.
func referenceTorus(w, h int) *Graph {
	id := func(x, y int) int { return (x%w+w)%w + w*((y%h+h)%h) }
	b := NewBuilder(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := id(x, y)
			// right edge: port 1 here, port 0 (left) at the neighbor
			b.AddEdge(v, 1, id(x+1, y), 0)
			// down edge: port 3 here, port 2 (up) at the neighbor
			b.AddEdge(v, 3, id(x, y+1), 2)
		}
	}
	return b.MustFinalize()
}

// referenceGrid is Grid through the Builder.
func referenceGrid(w, h int) *Graph {
	id := func(x, y int) int { return x + w*y }
	port := make(map[[2]int]int)
	nextPort := func(v int) int {
		p := port[[2]int{v, 0}]
		port[[2]int{v, 0}] = p + 1
		return p
	}
	b := NewBuilder(w * h)
	// Assign ports per node in direction order by iterating nodes and
	// their existing directions deterministically.
	type dir struct{ dx, dy int }
	dirs := []dir{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	portOf := make(map[[2]int]int) // (node, packed neighbor) -> port
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := id(x, y)
			for _, d := range dirs {
				nx, ny := x+d.dx, y+d.dy
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				portOf[[2]int{v, id(nx, ny)}] = nextPort(v)
			}
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := id(x, y)
			if x+1 < w {
				u := id(x+1, y)
				b.AddEdge(v, portOf[[2]int{v, u}], u, portOf[[2]int{u, v}])
			}
			if y+1 < h {
				u := id(x, y+1)
				b.AddEdge(v, portOf[[2]int{v, u}], u, portOf[[2]int{u, v}])
			}
		}
	}
	return b.MustFinalize()
}

// referenceHypercube is Hypercube through the Builder.
func referenceHypercube(d int) *Graph {
	n := 1 << uint(d)
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			u := v ^ (1 << uint(i))
			if v < u {
				b.AddEdge(v, i, u, i)
			}
		}
	}
	return b.MustFinalize()
}

// referenceRandomConnected is RandomConnected through the Builder, with
// an edge set and per-node port maps.
func referenceRandomConnected(n, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	type edge struct{ u, v int }
	edgeSet := make(map[edge]bool)
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		edgeSet[edge{u, v}] = true
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(perm[i], perm[rng.Intn(i)])
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			addEdge(u, v)
		}
	}
	incident := make([][]edge, n)
	for e := range edgeSet {
		incident[e.u] = append(incident[e.u], e)
		incident[e.v] = append(incident[e.v], e)
	}
	// Random port permutation per node. Iterate edges in a canonical
	// order so the build is reproducible for a fixed seed.
	less := func(a, b edge) bool { return a.u < b.u || a.u == b.u && a.v < b.v }
	ports := make([]map[edge]int, n)
	for v := 0; v < n; v++ {
		es := incident[v]
		// canonical sort before shuffling to decouple from map order
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && less(es[j], es[j-1]); j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		p := rng.Perm(len(es))
		ports[v] = make(map[edge]int, len(es))
		for i, e := range es {
			ports[v][e] = p[i]
		}
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, e := range incident[v] {
			if e.u == v { // add each edge once, from its lower endpoint
				b.AddEdge(e.u, ports[e.u][e], e.v, ports[e.v][e])
			}
		}
	}
	return b.MustFinalize()
}

// referenceShufflePorts is ShufflePorts through the Builder.
func referenceShufflePorts(g *Graph, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	perms := make([][]int, n)
	for v := 0; v < n; v++ {
		perms[v] = rng.Perm(g.Deg(v))
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for p := 0; p < g.Deg(v); p++ {
			h := g.At(v, p)
			if v < h.To {
				b.AddEdge(v, perms[v][p], h.To, perms[h.To][h.RemotePort])
			}
		}
	}
	return b.MustFinalize()
}

// mustStreamEqual fails t unless got and want are the same port-labeled
// graph: the same nodes, degrees, neighbors and remote ports.
func mustStreamEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("n %d vs %d, m %d vs %d", got.N(), want.N(), got.M(), want.M())
	}
	for v := 0; v < got.N(); v++ {
		if got.Deg(v) != want.Deg(v) {
			t.Fatalf("deg(%d) %d vs %d", v, got.Deg(v), want.Deg(v))
		}
		for p := 0; p < got.Deg(v); p++ {
			if got.At(v, p) != want.At(v, p) {
				t.Fatalf("node %d port %d: %v vs %v", v, p, got.At(v, p), want.At(v, p))
			}
		}
	}
}

// TestStreamMatchesBuilder pins every direct constructor bit-identical —
// same nodes, same ports, same remote ports — to its Builder-based
// reference, across shapes and seeds.
func TestStreamMatchesBuilder(t *testing.T) {
	t.Run("torus", func(t *testing.T) {
		for _, wh := range [][2]int{{3, 3}, {3, 5}, {4, 4}, {7, 3}, {10, 6}} {
			mustStreamEqual(t, Torus(wh[0], wh[1]), referenceTorus(wh[0], wh[1]))
		}
	})
	t.Run("grid", func(t *testing.T) {
		for _, wh := range [][2]int{{1, 2}, {2, 1}, {2, 2}, {4, 3}, {1, 9}, {9, 1}, {6, 8}} {
			mustStreamEqual(t, Grid(wh[0], wh[1]), referenceGrid(wh[0], wh[1]))
		}
	})
	t.Run("hypercube", func(t *testing.T) {
		for d := 1; d <= 7; d++ {
			mustStreamEqual(t, Hypercube(d), referenceHypercube(d))
		}
	})
	t.Run("shuffle", func(t *testing.T) {
		for seed := int64(0); seed < 5; seed++ {
			mustStreamEqual(t, ShufflePorts(Torus(4, 5), seed), referenceShufflePorts(Torus(4, 5), seed))
			mustStreamEqual(t, ShufflePorts(Hypercube(4), seed), referenceShufflePorts(Hypercube(4), seed))
			mustStreamEqual(t, ShufflePorts(Clique(6), seed), referenceShufflePorts(Clique(6), seed))
		}
	})
	t.Run("random", func(t *testing.T) {
		for _, c := range []struct {
			n, extra int
			seed     int64
		}{{2, 0, 0}, {5, 3, 1}, {20, 10, 0}, {20, 10, 3}, {60, 30, 7}, {85, 42, 5}, {100, 0, 2}, {100, 300, 4}} {
			mustStreamEqual(t, RandomConnected(c.n, c.extra, c.seed), referenceRandomConnected(c.n, c.extra, c.seed))
		}
	})
}

// TestStreamModelInvariants checks the port-labeled-graph model directly
// on a directly built graph big enough to exercise the packed-edge
// paths: ports form {0..deg-1} with consistent back-pointers, no loops
// or parallel edges, and the graph is connected.
func TestStreamModelInvariants(t *testing.T) {
	g := RandomConnected(3000, 1500, 9)
	seen := make(map[[2]int]bool)
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Deg(v); p++ {
			h := g.At(v, p)
			if h.To == v {
				t.Fatalf("self-loop at %d", v)
			}
			if back := g.At(h.To, h.RemotePort); back.To != v || back.RemotePort != p {
				t.Fatalf("port back-pointer broken at %d:%d -> %d:%d", v, p, h.To, h.RemotePort)
			}
			lo, hi := v, h.To
			if lo > hi {
				lo, hi = hi, lo
			}
			if v < h.To {
				if seen[[2]int{lo, hi}] {
					t.Fatalf("parallel edge {%d,%d}", lo, hi)
				}
				seen[[2]int{lo, hi}] = true
			}
		}
	}
	if len(seen) != g.M() {
		t.Fatalf("edge count: %d distinct vs M()=%d", len(seen), g.M())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
}
