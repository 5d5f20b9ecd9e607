package view

import (
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/graph"
)

func TestLeafInterning(t *testing.T) {
	tb := NewTable()
	a, b := tb.Leaf(3), tb.Leaf(3)
	if a != b {
		t.Error("equal leaves should intern to one pointer")
	}
	if tb.Leaf(2) == a {
		t.Error("different degrees should differ")
	}
	if a.Depth != 0 || a.Deg != 3 {
		t.Error("leaf fields wrong")
	}
}

func TestMakeInterning(t *testing.T) {
	tb := NewTable()
	l2, l3 := tb.Leaf(2), tb.Leaf(3)
	a := tb.Make([]Edge{{0, l2}, {1, l3}})
	b := tb.Make([]Edge{{0, l2}, {1, l3}})
	c := tb.Make([]Edge{{1, l2}, {1, l3}})
	if a != b {
		t.Error("structurally equal views should intern together")
	}
	if a == c {
		t.Error("different remote ports should differ")
	}
	if a.Depth != 1 || a.Deg != 2 {
		t.Error("view fields wrong")
	}
}

func TestMakePanics(t *testing.T) {
	tb := NewTable()
	for _, f := range []func(){
		func() { tb.Make(nil) },
		func() { tb.Make([]Edge{{0, tb.Leaf(1)}, {1, tb.Make([]Edge{{0, tb.Leaf(1)}})}}) },
		func() { tb.Leaf(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// pathB1 returns B^1 views of a path graph for hand verification.
func TestLevelsOnPath(t *testing.T) {
	tb := NewTable()
	g := graph.Path(4)
	levels := Levels(tb, g, 2)
	// Depth 0: degrees 1,2,2,1 -> two distinct leaves.
	if levels[0][0] != levels[0][3] || levels[0][1] != levels[0][2] {
		t.Error("depth-0 views group by degree")
	}
	if levels[0][0] == levels[0][1] {
		t.Error("degree 1 vs 2 must differ")
	}
	// Depth 1: node 1 sees (deg-1 leaf via 0, deg-2 leaf via 1);
	// node 2 sees (deg-2 via 0 with remote port 1, deg-1 via 1).
	if levels[1][1] == levels[1][2] {
		t.Error("B1 of nodes 1 and 2 must differ")
	}
	// Endpoints see different neighbor degrees at depth 1.
	if levels[1][0] == levels[1][3] {
		t.Error("B1 of endpoints must differ (different neighbor ports)")
	}
	_ = levels
}

func TestElectionIndexPath(t *testing.T) {
	tb := NewTable()
	// Path on 4 nodes: B1 distinguishes everything (checked above);
	// B0 does not (two degree classes). So phi = ceil? must be >= 1, and
	// here exactly 1... verify against definition directly.
	g := graph.Path(4)
	phi, ok := ElectionIndex(tb, g)
	if !ok {
		t.Fatal("path(4) should be feasible")
	}
	lv := Levels(tb, g, phi)
	if distinctCount(lv[phi]) != g.N() {
		t.Error("views at phi not all distinct")
	}
	if phi > 0 && distinctCount(Levels(tb, g, phi-1)[phi-1]) == g.N() {
		t.Error("phi not minimal")
	}
}

func TestElectionIndexInfeasible(t *testing.T) {
	tb := NewTable()
	for _, g := range []*graph.Graph{graph.Ring(6), graph.Hypercube(3), graph.Path(2)} {
		if _, ok := ElectionIndex(tb, g); ok {
			t.Errorf("symmetric graph reported feasible")
		}
		if Feasible(tb, g) {
			t.Error("Feasible disagrees")
		}
	}
}

func TestElectionIndexSingleNode(t *testing.T) {
	tb := NewTable()
	g := graph.Star(0)
	phi, ok := ElectionIndex(tb, g)
	if !ok || phi != 0 {
		t.Errorf("one-node graph: phi=%d ok=%v", phi, ok)
	}
}

func TestElectionIndexPositive(t *testing.T) {
	// "The election index is always a strictly positive integer because
	// there is no graph all of whose nodes have different degrees."
	tb := NewTable()
	for _, g := range []*graph.Graph{
		graph.Path(4), graph.Lollipop(4, 2), graph.Grid(3, 2),
		graph.RandomConnected(12, 6, 3),
	} {
		phi, ok := ElectionIndex(tb, g)
		if ok && phi < 1 {
			t.Errorf("phi = %d < 1 on multi-node graph", phi)
		}
	}
}

func TestClassesMatchViews(t *testing.T) {
	tb := NewTable()
	g := graph.Lollipop(4, 3)
	for d := 0; d <= 3; d++ {
		classes := Classes(tb, g, d)
		vs := Levels(tb, g, d)[d]
		for i := range vs {
			for j := range vs {
				if (classes[i] == classes[j]) != (vs[i] == vs[j]) {
					t.Fatalf("class/view mismatch at depth %d (%d,%d)", d, i, j)
				}
			}
		}
	}
}

func TestTruncate(t *testing.T) {
	tb := NewTable()
	g := graph.Lollipop(4, 3)
	levels := Levels(tb, g, 3)
	for v := 0; v < g.N(); v++ {
		if tb.Truncate(levels[3][v]) != levels[2][v] {
			t.Fatalf("Truncate(B3(%d)) != B2(%d)", v, v)
		}
		if tb.TruncateTo(levels[3][v], 0) != levels[0][v] {
			t.Fatalf("TruncateTo depth 0 failed at %d", v)
		}
		if tb.TruncateTo(levels[3][v], 3) != levels[3][v] {
			t.Fatal("TruncateTo same depth should be identity")
		}
	}
}

func TestTruncatePanics(t *testing.T) {
	tb := NewTable()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tb.Truncate(tb.Leaf(2))
}

func TestCompareTotalOrder(t *testing.T) {
	tb := NewTable()
	g := graph.RandomConnected(15, 8, 11)
	vs := Levels(tb, g, 3)[3]
	for _, a := range vs {
		for _, b := range vs {
			ca, cb := tb.Compare(a, b), tb.Compare(b, a)
			if ca != -cb {
				t.Fatal("antisymmetry violated")
			}
			if (ca == 0) != (a == b) {
				t.Fatal("Compare==0 must coincide with pointer equality")
			}
			for _, c := range vs {
				if tb.Compare(a, b) <= 0 && tb.Compare(b, c) <= 0 && tb.Compare(a, c) > 0 {
					t.Fatal("transitivity violated")
				}
			}
		}
	}
}

func TestMinAndSort(t *testing.T) {
	tb := NewTable()
	g := graph.Lollipop(5, 4)
	vs := append([]*View(nil), Levels(tb, g, 2)[2]...)
	m := tb.Min(vs)
	tb.Sort(vs)
	if vs[0] != m {
		t.Error("Min disagrees with Sort")
	}
	for i := 1; i < len(vs); i++ {
		if tb.Compare(vs[i-1], vs[i]) > 0 {
			t.Error("not sorted")
		}
	}
}

func TestEncodeDepth1MatchesPaperShape(t *testing.T) {
	tb := NewTable()
	g := graph.Path(3)
	b1 := Levels(tb, g, 1)[1]
	// Node 0 (degree 1, neighbor = middle node with degree 2, remote port 0):
	// encoding of ((0, 0, 2)) = Concat(Concat(bin(0),bin(0),bin(2))).
	want := bits.Concat(bits.ConcatInts(0, 0, 2))
	if !bits.Equal(EncodeDepth1(b1[0]), want) {
		t.Errorf("EncodeDepth1 = %v, want %v", EncodeDepth1(b1[0]), want)
	}
	// Distinct depth-1 views encode distinctly.
	seen := map[string]*View{}
	for _, v := range b1 {
		k := EncodeDepth1(v).String()
		if prev, ok := seen[k]; ok && prev != v {
			t.Error("distinct views share an encoding")
		}
		seen[k] = v
	}
}

func TestEncodeDepth1PanicsOnWrongDepth(t *testing.T) {
	tb := NewTable()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	EncodeDepth1(tb.Leaf(2))
}

func TestSerializeRoundTrip(t *testing.T) {
	tb := NewTable()
	g := graph.Lollipop(4, 2)
	for d := 0; d <= 3; d++ {
		for _, v := range Levels(tb, g, d)[d] {
			s := Serialize(v)
			tb2 := NewTable()
			got, err := Deserialize(tb2, s)
			if err != nil {
				t.Fatalf("depth %d: %v", d, err)
			}
			// Re-serialize must be identical (canonical form).
			if !bits.Equal(Serialize(got), s) {
				t.Fatalf("depth %d: round trip not canonical", d)
			}
		}
	}
}

func TestDeserializeErrors(t *testing.T) {
	tb := NewTable()
	if _, err := Deserialize(tb, bits.New("10")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := Deserialize(tb, bits.ConcatInts(2)); err == nil {
		t.Error("truncated stream should fail")
	}
	if _, err := Deserialize(tb, bits.ConcatInts(1, 0)); err == nil {
		t.Error("zero-degree internal node should fail")
	}
}

func TestLevelSets(t *testing.T) {
	tb := NewTable()
	g := graph.Lollipop(4, 3) // n = 7
	root := Of(tb, g, 6, 5)   // far end of the tail
	levels := LevelSets(root)
	if len(levels) != 6 {
		t.Fatalf("levels = %d", len(levels))
	}
	if len(levels[0]) != 1 || levels[0][0] != root {
		t.Error("level 0 must be the root")
	}
	// Level j views all have depth root.Depth - j.
	for j, set := range levels {
		for _, v := range set {
			if v.Depth != root.Depth-j {
				t.Fatalf("level %d has depth-%d view", j, v.Depth)
			}
		}
		if len(set) > g.N() {
			t.Fatalf("level %d has %d > n views", j, len(set))
		}
	}
}

func TestLexShortestPathTo(t *testing.T) {
	tb := NewTable()
	g := graph.Path(5)
	phi, ok := ElectionIndex(tb, g)
	if !ok {
		t.Fatal("path(5) infeasible?")
	}
	levels := Levels(tb, g, phi)
	target := tb.Min(levels[phi])
	// From node 0, view at depth 4+phi sees everything.
	root := Of(tb, g, 0, 4+phi)
	path := tb.LexShortestPathTo(root, target, phi, 4)
	if path == nil {
		t.Fatal("no path found")
	}
	nodes, err := g.FollowPath(0, path)
	if err != nil {
		t.Fatalf("returned path invalid in graph: %v", err)
	}
	end := nodes[len(nodes)-1]
	if levels[phi][end] != target {
		t.Errorf("path ends at node %d whose view is not the target", end)
	}
	if !graph.IsSimplePath(nodes) {
		t.Error("path not simple")
	}
}

func TestPathLess(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{}, []int{0}, true},
		{[]int{0}, []int{}, false},
		{[]int{0, 1}, []int{0, 2}, true},
		{[]int{1}, []int{0, 5}, false},
		{[]int{0, 1}, []int{0, 1}, false},
	}
	for _, c := range cases {
		if PathLess(c.a, c.b) != c.want {
			t.Errorf("PathLess(%v,%v) != %v", c.a, c.b, c.want)
		}
	}
}

// Property: for random graphs, view equality at depth l is exactly class
// equality under iterated degree refinement — i.e. B^l(u) == B^l(v) iff u
// and v are indistinguishable after l rounds of information exchange.
func TestViewEqualityRefinementProperty(t *testing.T) {
	f := func(seed int64) bool {
		tb := NewTable()
		g := graph.RandomConnected(10, 5, seed)
		levels := Levels(tb, g, 3)
		// Check the recursive characterization at depth 2.
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				eq := levels[2][u] == levels[2][v]
				// Definition: same degree, and for each port the remote
				// ports agree and children at depth 1 agree.
				def := g.Deg(u) == g.Deg(v)
				if def {
					for p := 0; p < g.Deg(u) && def; p++ {
						hu, hv := g.At(u, p), g.At(v, p)
						if hu.RemotePort != hv.RemotePort || levels[1][hu.To] != levels[1][hv.To] {
							def = false
						}
					}
				}
				if eq != def {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: serialization round-trips through a fresh table and preserves
// the interned identity when decoded back into the original table.
func TestSerializePropertySameTable(t *testing.T) {
	f := func(seed int64) bool {
		tb := NewTable()
		g := graph.RandomConnected(8, 4, seed)
		for _, v := range Levels(tb, g, 2)[2] {
			got, err := Deserialize(tb, Serialize(v))
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The view DAG's level sets coincide with distance balls: level j of
// B^K(u) contains exactly the views B^{K-j}(w) of the nodes w within
// distance j of u (walks of length j reach exactly those nodes, and
// shorter walks can be extended by backtracking when j has the right
// parity... in fact every node within distance j is hit by SOME length-j
// walk iff dist <= j and parity allows backtrack-padding; for j >= 1 and
// non-bipartite reachability padding works by going back and forth, so
// we assert set inclusion both ways over nodes at distance exactly <= j
// whose distance parity can be padded).
func TestLevelSetsAreDistanceBalls(t *testing.T) {
	tb := NewTable()
	g := graph.Lollipop(4, 3)
	const K = 5
	levels := Levels(tb, g, K)
	root := levels[K][0]
	sets := LevelSets(root)
	dist := g.BFSDist(0)
	for j := 0; j <= K; j++ {
		got := map[*View]bool{}
		for _, v := range sets[j] {
			got[v] = true
		}
		// Every view in level j must belong to some node within distance j.
		want := map[*View]bool{}
		for w := 0; w < g.N(); w++ {
			if dist[w] <= j {
				want[levels[K-j][w]] = true
			}
		}
		for v := range got {
			if !want[v] {
				t.Fatalf("level %d contains a view of no node within distance %d", j, j)
			}
		}
		// And every node at distance exactly j is represented (a shortest
		// walk of length j reaches it).
		for w := 0; w < g.N(); w++ {
			if dist[w] == j && !got[levels[K-j][w]] {
				t.Fatalf("level %d misses node %d at distance %d", j, w, j)
			}
		}
	}
}

// EncodeDepth1's direct writer must reproduce the nested
// Concat(ConcatInts(j, a_j, b_j)...) composition bit for bit on every
// depth-1 view of a varied set of graphs — the spec it replaced with
// quadrupled-digit writes — from both of its callers: the labeler's,
// which reads the view, and the oracle's, which reads the graph, into a
// buffer of its own or into a shared one.
func TestEncodeDepth1MatchesNestedConcat(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(5),
		graph.Star(7),
		graph.Clique(5),
		graph.Grid(3, 4),
		graph.ShufflePorts(graph.Hypercube(4), 3),
		graph.RandomConnected(30, 40, 11),
	} {
		tb := NewTable()
		var reused bits.Writer // one writer across nodes, as the label sweep keeps it
		for w, v := range Levels(tb, g, 1)[1] {
			parts := make([]bits.String, v.Deg)
			remote, nbrDeg := make([]int32, v.Deg), make([]int32, v.Deg)
			for j, e := range v.Edges {
				parts[j] = bits.ConcatInts(j, e.RemotePort, e.Child.Deg)
				remote[j], nbrDeg[j] = int32(e.RemotePort), int32(e.Child.Deg)
			}
			want := bits.Concat(parts...)
			if !bits.Equal(EncodeDepth1(v), want) {
				t.Fatalf("EncodeDepth1 diverges from nested Concat on %v", v)
			}
			port := func(j int) (int, int) {
				h := g.At(w, j)
				return h.RemotePort, g.Deg(h.To)
			}
			if !bits.Equal(EncodeDepth1Ports(g.Deg(w), port), want) {
				t.Fatalf("EncodeDepth1Ports diverges from nested Concat at node %d", w)
			}
			// Into a buffer one byte longer than the encoding: the
			// encoding takes exactly its own bytes.
			buf := make([]byte, Depth1Bytes(g.Deg(w), port)+1)
			into, rest := EncodeDepth1Into(buf, g.Deg(w), port)
			if !bits.Equal(into, want) || len(rest) != 1 {
				t.Fatalf("EncodeDepth1Into diverges from nested Concat at node %d, or leaves %d bytes", w, len(rest))
			}
			if !bits.Equal(WriteDepth1(&reused, remote, nbrDeg), want) {
				t.Fatalf("WriteDepth1 diverges from nested Concat at node %d", w)
			}
		}
	}
}

func TestStablePartitionDirect(t *testing.T) {
	tab := NewTable()
	classes, depth := StablePartition(tab, graph.Ring(5))
	if depth != 0 {
		t.Errorf("ring partition should stabilize at depth 0, got %d", depth)
	}
	for _, c := range classes {
		if c != 0 {
			t.Error("ring should be one class")
		}
	}
	g := graph.Lollipop(5, 3)
	classes, depth = StablePartition(tab, g)
	distinct := map[int]bool{}
	for _, c := range classes {
		distinct[c] = true
	}
	if len(distinct) != g.N() {
		t.Error("feasible graph should be discrete")
	}
	phi, _ := ElectionIndex(tab, g)
	if depth > phi {
		t.Errorf("stabilization depth %d beyond phi %d", depth, phi)
	}
}
