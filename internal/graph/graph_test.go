package graph

import (
	"reflect"
	"testing"
)

func TestBuilderValidGraph(t *testing.T) {
	// Triangle with clockwise ports 0,1.
	g := NewBuilder(3).
		AddEdge(0, 0, 1, 1).
		AddEdge(1, 0, 2, 1).
		AddEdge(2, 0, 0, 1).
		MustFinalize()
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	for v := 0; v < 3; v++ {
		if g.Deg(v) != 2 {
			t.Errorf("deg(%d) = %d", v, g.Deg(v))
		}
	}
	if g.Neighbor(0, 0) != 1 || g.PortBack(0, 0) != 1 {
		t.Error("edge 0->1 wrong")
	}
	if g.PortTo(0, 2) != 1 {
		t.Errorf("PortTo(0,2) = %d", g.PortTo(0, 2))
	}
	if g.PortTo(0, 0) != -1 {
		t.Error("PortTo to self should be -1")
	}
}

// TestAtPanicsOutOfRange pins the row bounds of the CSR accessors: a
// port outside [0, Deg(v)) panics instead of reading a neighbor's
// half-edge, which a bare off[v]+p index would. In a path, node 0's
// port 1 and node 1's port -1 are both valid CSR indices.
func TestAtPanicsOutOfRange(t *testing.T) {
	g := Path(3)
	for _, tc := range []struct{ v, p int }{{0, g.Deg(0)}, {1, g.Deg(1)}, {1, -1}} {
		for name, f := range map[string]func(){
			"At":       func() { g.At(tc.v, tc.p) },
			"Neighbor": func() { g.Neighbor(tc.v, tc.p) },
			"PortBack": func() { g.PortBack(tc.v, tc.p) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d, %d) did not panic", name, tc.v, tc.p)
					}
				}()
				f()
			}()
		}
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	_, err := NewBuilder(2).AddEdge(0, 0, 0, 1).Finalize()
	if err == nil {
		t.Error("expected self-loop error")
	}
}

func TestBuilderRejectsParallelEdge(t *testing.T) {
	_, err := NewBuilder(3).
		AddEdge(0, 0, 1, 0).
		AddEdge(1, 1, 0, 1).
		AddEdge(1, 2, 2, 0).
		Finalize()
	if err == nil {
		t.Error("expected parallel-edge error")
	}
}

func TestBuilderRejectsPortReuse(t *testing.T) {
	_, err := NewBuilder(3).
		AddEdge(0, 0, 1, 0).
		AddEdge(0, 0, 2, 0).
		Finalize()
	if err == nil {
		t.Error("expected port-reuse error")
	}
}

func TestBuilderRejectsNonContiguousPorts(t *testing.T) {
	// Node 0 has degree 1 but uses port 1.
	_, err := NewBuilder(2).AddEdge(0, 1, 1, 0).Finalize()
	if err == nil {
		t.Error("expected port-range error")
	}
}

func TestBuilderRejectsDisconnected(t *testing.T) {
	_, err := NewBuilder(4).
		AddEdge(0, 0, 1, 0).
		AddEdge(2, 0, 3, 0).
		Finalize()
	if err == nil {
		t.Error("expected connectivity error")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	_, err := NewBuilder(2).AddEdge(0, 0, 5, 0).Finalize()
	if err == nil {
		t.Error("expected range error")
	}
}

func TestRingStructure(t *testing.T) {
	g := Ring(5)
	if g.N() != 5 || g.M() != 5 || g.Diameter() != 2 {
		t.Fatalf("ring(5): N=%d M=%d D=%d", g.N(), g.M(), g.Diameter())
	}
	// Port 0 goes clockwise: following port 0 five times returns home.
	v := 0
	for i := 0; i < 5; i++ {
		v = g.Neighbor(v, 0)
	}
	if v != 0 {
		t.Error("port-0 walk did not close the cycle")
	}
}

func TestPathStructure(t *testing.T) {
	g := Path(4)
	if g.Diameter() != 3 {
		t.Errorf("path(4) diameter = %d", g.Diameter())
	}
	if g.Deg(0) != 1 || g.Deg(1) != 2 || g.Deg(3) != 1 {
		t.Error("path degrees wrong")
	}
}

func TestCliqueStructure(t *testing.T) {
	g := Clique(5)
	if g.M() != 10 || g.Diameter() != 1 {
		t.Fatalf("clique(5): M=%d D=%d", g.M(), g.Diameter())
	}
	for v := 0; v < 5; v++ {
		if g.Deg(v) != 4 {
			t.Errorf("deg(%d)=%d", v, g.Deg(v))
		}
	}
	// Canonical ports: at node 2, edge to 0 has port 0, to 1 port 1,
	// to 3 port 2, to 4 port 3.
	if g.Neighbor(2, 0) != 0 || g.Neighbor(2, 1) != 1 || g.Neighbor(2, 2) != 3 || g.Neighbor(2, 3) != 4 {
		t.Error("clique canonical ports wrong")
	}
}

func TestStarStructure(t *testing.T) {
	for k := 0; k <= 4; k++ {
		g := Star(k)
		if g.N() != k+1 {
			t.Fatalf("star(%d): N=%d", k, g.N())
		}
		if g.Deg(0) != k {
			t.Errorf("star(%d): central degree %d", k, g.Deg(0))
		}
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(2, 3)
	if g.N() != 5 || g.M() != 6 {
		t.Fatalf("K23: N=%d M=%d", g.N(), g.M())
	}
	if g.Deg(0) != 3 || g.Deg(2) != 2 {
		t.Error("K23 degrees wrong")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 2)
	if g.N() != 6 || g.M() != 7 {
		t.Fatalf("grid(3,2): N=%d M=%d", g.N(), g.M())
	}
	if g.Diameter() != 3 {
		t.Errorf("grid(3,2) diameter = %d", g.Diameter())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(3)
	if g.N() != 8 || g.M() != 12 || g.Diameter() != 3 {
		t.Fatalf("Q3: N=%d M=%d D=%d", g.N(), g.M(), g.Diameter())
	}
	// Port i flips dimension i.
	if g.Neighbor(5, 1) != 7 {
		t.Errorf("Q3 port semantics wrong: %d", g.Neighbor(5, 1))
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(4, 3)
	if g.N() != 7 {
		t.Fatalf("N=%d", g.N())
	}
	if g.Deg(0) != 4 {
		t.Errorf("attachment degree %d", g.Deg(0))
	}
	if g.Diameter() != 4 {
		t.Errorf("diameter %d", g.Diameter())
	}
}

func TestRandomConnected(t *testing.T) {
	for _, n := range []int{2, 5, 20, 50} {
		g := RandomConnected(n, n/2, 12345)
		if g.N() != n {
			t.Fatalf("n=%d: N=%d", n, g.N())
		}
		if !g.Connected() {
			t.Fatalf("n=%d: not connected", n)
		}
	}
	// Determinism.
	a, b := RandomConnected(20, 5, 7), RandomConnected(20, 5, 7)
	if !Isomorphic(a, b) {
		t.Error("same seed should give identical graphs")
	}
}

func TestShufflePortsPreservesTopology(t *testing.T) {
	g := Lollipop(5, 2)
	s := ShufflePorts(g, 99)
	if s.N() != g.N() || s.M() != g.M() {
		t.Fatal("shuffle changed size")
	}
	for v := 0; v < g.N(); v++ {
		if s.Deg(v) != g.Deg(v) {
			t.Fatalf("degree changed at %d", v)
		}
		for p := 0; p < g.Deg(v); p++ {
			u := g.Neighbor(v, p)
			if s.PortTo(v, u) < 0 {
				t.Fatalf("edge {%d,%d} lost", v, u)
			}
		}
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(6)
	dist := g.BFSDist(0)
	for i, d := range dist {
		if d != i {
			t.Errorf("dist[%d]=%d", i, d)
		}
	}
	if g.Eccentricity(0) != 5 || g.Eccentricity(3) != 3 {
		t.Error("eccentricity wrong")
	}
	if g.Dist(1, 4) != 3 {
		t.Error("Dist wrong")
	}
}

func TestCanonicalBFSTree(t *testing.T) {
	g := Clique(4)
	tree := g.CanonicalBFSTree(0)
	if len(tree) != 3 {
		t.Fatalf("tree edges = %d", len(tree))
	}
	for _, e := range tree {
		if e.Parent != 0 {
			t.Errorf("clique BFS tree should be a star at root, got parent %d", e.Parent)
		}
		if g.Neighbor(e.Parent, e.PortParent) != e.Child {
			t.Error("tree edge ports inconsistent with graph")
		}
		if g.Neighbor(e.Child, e.PortChild) != e.Parent {
			t.Error("tree child port inconsistent with graph")
		}
	}
	// On a path, the BFS tree is the path itself.
	p := Path(5)
	tree = p.CanonicalBFSTree(2)
	if len(tree) != 4 {
		t.Fatalf("path tree edges = %d", len(tree))
	}
	// A2's order: edges ascend by (Parent, PortParent), and each child
	// hangs off its smallest port one level up.
	r := RandomConnected(60, 40, 2)
	dist := r.BFSDist(5)
	tree = r.CanonicalBFSTree(5)
	if len(tree) != r.N()-1 {
		t.Fatalf("random tree edges = %d", len(tree))
	}
	for i, e := range tree {
		if i > 0 && (e.Parent < tree[i-1].Parent || e.Parent == tree[i-1].Parent && e.PortParent <= tree[i-1].PortParent) {
			t.Fatalf("edge %d %+v follows %+v", i, e, tree[i-1])
		}
		if r.At(e.Child, e.PortChild) != (Half{To: e.Parent, RemotePort: e.PortParent}) || dist[e.Parent] != dist[e.Child]-1 {
			t.Fatalf("edge %+v is not a tree edge one level up", e)
		}
		for p := 0; p < e.PortChild; p++ {
			if dist[r.Neighbor(e.Child, p)] == dist[e.Parent] {
				t.Fatalf("edge %+v: child port %d also leads one level up", e, p)
			}
		}
	}
}

func TestFollowPath(t *testing.T) {
	g := Path(4) // ports: interior 0 left, 1 right
	// From node 0 to node 2: (0,0) then (1,0).
	nodes, err := g.FollowPath(0, []int{0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || nodes[2] != 2 {
		t.Errorf("nodes = %v", nodes)
	}
	if !IsSimplePath(nodes) {
		t.Error("should be simple")
	}
	// AppendPath extends the caller's buffer instead of replacing it.
	buf := append(make([]int, 0, 8), 7)
	got, err := g.AppendPath(buf, 0, []int{0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{7, 0, 1, 2}; !reflect.DeepEqual(got, want) || &got[0] != &buf[0] {
		t.Errorf("AppendPath = %v, want %v in the caller's buffer", got, want)
	}
	// Wrong arrival port.
	if _, err := g.FollowPath(0, []int{0, 1}); err == nil {
		t.Error("expected arrival-port error")
	}
	// Odd length.
	if _, err := g.FollowPath(0, []int{0}); err == nil {
		t.Error("expected odd-length error")
	}
	// Invalid port.
	if _, err := g.FollowPath(0, []int{5, 0}); err == nil {
		t.Error("expected invalid-port error")
	}
}

// The budget path of the election entry points at scale: on a 20k-node
// grid (diameter known in closed form) the double-sweep bounds must
// bracket the true diameter without an all-pairs BFS — this size alone
// would take the exact Diameter() tens of seconds, which is the wall
// RunGeneric/RunMilestone/RunTreeElect used to hit before their
// deciders even started.
func TestDiameterBoundsScale(t *testing.T) {
	g := Grid(100, 200) // n = 20000, D = 99 + 199 = 298
	lo, hi := g.DiameterBounds()
	if lo > 298 || hi < 298 {
		t.Errorf("bounds [%d,%d] do not bracket the grid diameter 298", lo, hi)
	}
}

// DiameterBounds must bracket the exact diameter on every family, and
// the exact diameter must be stable across calls (it is memoized).
func TestDiameterBounds(t *testing.T) {
	for name, g := range map[string]*Graph{
		"path9":    Path(9),
		"ring8":    Ring(8),
		"clique5":  Clique(5),
		"star7":    Star(7),
		"grid45":   Grid(4, 5),
		"lollipop": Lollipop(5, 6),
		"torus34":  Torus(3, 4),
		"hcube4":   Hypercube(4),
		"random":   RandomConnected(40, 20, 7),
		"single":   NewBuilder(1).MustFinalize(),
	} {
		d := g.Diameter()
		lo, hi := g.DiameterBounds()
		if lo > d || d > hi {
			t.Errorf("%s: bounds [%d,%d] do not bracket diameter %d", name, lo, hi, d)
		}
		if hi > 2*lo && lo > 0 {
			t.Errorf("%s: upper bound %d exceeds 2x lower bound %d", name, hi, lo)
		}
		if d2 := g.Diameter(); d2 != d {
			t.Errorf("%s: memoized diameter changed: %d then %d", name, d, d2)
		}
		if lo2, hi2 := g.DiameterBounds(); lo2 != lo || hi2 != hi {
			t.Errorf("%s: memoized bounds changed", name)
		}
	}
	// On a path, the double sweep's lower bound is exact from any start.
	if lo, _ := Path(31).DiameterBounds(); lo != 30 {
		t.Errorf("path lower bound %d, want exact 30", lo)
	}
}

func TestIsSimplePath(t *testing.T) {
	if !IsSimplePath([]int{1, 2, 3}) {
		t.Error("distinct nodes should be simple")
	}
	if IsSimplePath([]int{1, 2, 1}) {
		t.Error("repeated node should not be simple")
	}
}

func TestIsomorphic(t *testing.T) {
	if !Isomorphic(Ring(5), Ring(5)) {
		t.Error("identical rings should be isomorphic")
	}
	if Isomorphic(Ring(5), Ring(6)) {
		t.Error("different sizes")
	}
	if Isomorphic(Path(4), Star(3)) {
		t.Error("path vs star")
	}
	// Same topology, different ports: K3 with swapped ports at one node.
	a := NewBuilder(3).AddEdge(0, 0, 1, 1).AddEdge(1, 0, 2, 1).AddEdge(2, 0, 0, 1).MustFinalize()
	bg := NewBuilder(3).AddEdge(0, 1, 1, 1).AddEdge(1, 0, 2, 1).AddEdge(2, 0, 0, 0).MustFinalize()
	if Isomorphic(a, bg) {
		t.Error("port-relabeled triangle should not be port-isomorphic")
	}
	// Relabeling nodes preserves isomorphism.
	c := NewBuilder(3).AddEdge(1, 0, 2, 1).AddEdge(2, 0, 0, 1).AddEdge(0, 0, 1, 1).MustFinalize()
	if !Isomorphic(a, c) {
		t.Error("node-relabeled triangle should be port-isomorphic")
	}
}
