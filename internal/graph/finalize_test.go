package graph

import (
	"fmt"
	"testing"
)

// referenceFinalize is the map-based Finalize the CSR one replaced: a
// seenEdge and a seenPort map, one port map per node, and the degree
// check per node after all edges are in. It returns the adjacency rows
// and the edge count instead of a Graph, so the graph it accepts is
// built without the code under test. FuzzBuilderFinalize pins Finalize
// to it: the same inputs accepted, the same graphs built.
func referenceFinalize(b *Builder) (adj [][]Half, m int, err error) {
	if b.n > 1 && len(b.edges) < b.n-1 {
		return nil, 0, fmt.Errorf("graph: not connected")
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
			return nil, 0, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.u, e.v, b.n)
		}
		if e.u == e.v {
			return nil, 0, fmt.Errorf("graph: self-loop at node %d", e.u)
		}
		if e.pu < 0 || e.pv < 0 {
			return nil, 0, fmt.Errorf("graph: negative port on edge {%d,%d}", e.u, e.v)
		}
		lo, hi := e.u, e.v
		if lo > hi {
			lo, hi = hi, lo
		}
		if seenEdge[[2]int{lo, hi}] {
			return nil, 0, fmt.Errorf("graph: parallel edge {%d,%d}", e.u, e.v)
		}
		seenEdge[[2]int{lo, hi}] = true
		if seenPort[portKey{e.u, e.pu}] {
			return nil, 0, fmt.Errorf("graph: port %d reused at node %d", e.pu, e.u)
		}
		if seenPort[portKey{e.v, e.pv}] {
			return nil, 0, fmt.Errorf("graph: port %d reused at node %d", e.pv, e.v)
		}
		seenPort[portKey{e.u, e.pu}] = true
		seenPort[portKey{e.v, e.pv}] = true
		adjPorts[e.u][e.pu] = Half{To: e.v, RemotePort: e.pv}
		adjPorts[e.v][e.pv] = Half{To: e.u, RemotePort: e.pu}
	}
	adj = make([][]Half, b.n)
	for v, ports := range adjPorts {
		d := len(ports)
		adj[v] = make([]Half, d)
		for p, h := range ports {
			if p >= d {
				return nil, 0, fmt.Errorf("graph: node %d has degree %d but uses port %d", v, d, p)
			}
			adj[v][p] = h
		}
	}
	// Connectivity by a BFS over the rows.
	seen := make([]bool, b.n)
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range adj[u] {
			if !seen[h.To] {
				seen[h.To] = true
				queue = append(queue, h.To)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return nil, 0, fmt.Errorf("graph: not connected")
		}
	}
	return adj, len(seenEdge), nil
}

// fuzzBuilder decodes a fuzz input into a Builder: the first byte picks
// n in 1..8, every following four bytes one edge (u, pu, v, pv). Node
// ids fall in [-1, n] and ports in [-1, 6], so out-of-range endpoints,
// negative ports, ports past the degree, loops, reused ports and
// parallel edges are all a byte flip away from a valid graph.
func fuzzBuilder(data []byte) *Builder {
	if len(data) == 0 {
		return NewBuilder(1)
	}
	n := 1 + int(data[0]%8)
	b := NewBuilder(n)
	node := func(c byte) int { return int(c%byte(n+2)) - 1 }
	port := func(c byte) int { return int(c%8) - 1 }
	for e := data[1:]; len(e) >= 4 && len(b.edges) < 32; e = e[4:] {
		b.AddEdge(node(e[0]), port(e[1]), node(e[2]), port(e[3]))
	}
	return b
}

// fuzzBytes is fuzzBuilder's inverse on well-formed edge lists, for
// seeding the corpus with real graphs.
func fuzzBytes(g *Graph) []byte {
	data := []byte{byte(g.N() - 1)}
	for u := 0; u < g.N(); u++ {
		for p := 0; p < g.Deg(u); p++ {
			if h := g.At(u, p); u < h.To {
				data = append(data, byte(u+1), byte(p+1), byte(h.To+1), byte(h.RemotePort+1))
			}
		}
	}
	return data
}

func FuzzBuilderFinalize(f *testing.F) {
	for _, g := range []*Graph{
		NewBuilder(1).MustFinalize(), Path(2), Path(5), Ring(6), Star(4),
		Clique(4), Lollipop(4, 3), Grid(2, 3), RandomConnected(8, 6, 1),
	} {
		f.Add(fuzzBytes(g))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBuilder(data)
		g, err := b.Finalize()
		want, wantM, wantErr := referenceFinalize(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("edges %v: Finalize error %v, reference error %v", b.edges, err, wantErr)
		}
		if err != nil {
			return
		}
		if g.N() != len(want) || g.M() != wantM {
			t.Fatalf("edges %v: n %d m %d, reference n %d m %d", b.edges, g.N(), g.M(), len(want), wantM)
		}
		for v, row := range want {
			if g.Deg(v) != len(row) {
				t.Fatalf("edges %v: deg(%d) = %d, reference %d", b.edges, v, g.Deg(v), len(row))
			}
			for p, h := range row {
				if g.At(v, p) != h {
					t.Fatalf("edges %v: node %d port %d is %v, reference %v", b.edges, v, p, g.At(v, p), h)
				}
			}
		}
	})
}

// TestFinalizeErrorDeterministic pins the error of an input with more
// than one fault to one text: node 0 has degree 2 and uses ports 3 and
// 5, and the first of them in input order is the one reported.
func TestFinalizeErrorDeterministic(t *testing.T) {
	const want = "graph: node 0 has degree 2 but uses port 3"
	for i := 0; i < 100; i++ {
		_, err := NewBuilder(3).AddEdge(0, 3, 1, 0).AddEdge(0, 5, 2, 0).Finalize()
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %s", i, err, want)
		}
	}
}

// TestFinalizeErrorTexts pins which fault Finalize reports for inputs
// with one fault and for the overlaps whose report follows from the
// order of its passes.
func TestFinalizeErrorTexts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		edges [][4]int
		want  string
	}{
		{"range", 2, [][4]int{{0, 0, 5, 0}}, "graph: edge {0,5} out of range [0,2)"},
		{"loop", 2, [][4]int{{0, 0, 0, 1}}, "graph: self-loop at node 0"},
		{"negative", 2, [][4]int{{0, -1, 1, 0}}, "graph: negative port on edge {0,1}"},
		{"degree", 2, [][4]int{{0, 1, 1, 0}}, "graph: node 0 has degree 1 but uses port 1"},
		{"reused", 3, [][4]int{{0, 0, 1, 0}, {0, 0, 2, 0}}, "graph: port 0 reused at node 0"},
		{"parallel", 3, [][4]int{{1, 0, 0, 0}, {1, 1, 0, 1}, {1, 2, 2, 0}}, "graph: parallel edge {0,1}"},
		{"parallel before connectivity", 4, [][4]int{{0, 0, 1, 0}, {2, 0, 3, 0}, {2, 1, 3, 1}}, "graph: parallel edge {2,3}"},
		{"disconnected", 4, [][4]int{{0, 0, 1, 0}, {0, 1, 2, 0}, {1, 1, 2, 1}}, "graph: not connected"},
		{"too few edges", 4, [][4]int{{0, 0, 1, 0}, {2, 0, 3, 0}}, "graph: not connected"},
		// A reused port at or above the degree reads as the degree error.
		{"reused past degree", 3, [][4]int{{0, 3, 1, 0}, {0, 3, 2, 0}}, "graph: node 0 has degree 2 but uses port 3"},
	} {
		b := NewBuilder(tc.n)
		for _, e := range tc.edges {
			b.AddEdge(e[0], e[1], e[2], e[3])
		}
		if _, err := b.Finalize(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
		}
	}
}
