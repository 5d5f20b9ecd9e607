package advice

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/view"
)

func compute(t *testing.T, g *graph.Graph) (*Oracle, *Advice) {
	t.Helper()
	o := NewOracle(view.NewTable())
	a, err := o.ComputeAdvice(g)
	if err != nil {
		t.Fatalf("ComputeAdvice: %v", err)
	}
	return o, a
}

func feasibleTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path5":      graph.Path(5),
		"lollipop":   graph.Lollipop(5, 3),
		"tail-lolli": graph.Lollipop(3, 14),
		"grid43":     graph.Grid(4, 3),
		"random20":   graph.RandomConnected(20, 10, 2),
		"random35":   graph.RandomConnected(35, 18, 9),
		"k23":        graph.CompleteBipartite(2, 3),
		"lolli-big":  graph.Lollipop(8, 10),
	}
}

// Theorem 3.1 part 1 (structure): advice terminates, labels are a
// permutation of {1..n}, the tree spans all labels with root 1.
func TestComputeAdviceLabelsArePermutation(t *testing.T) {
	for name, g := range feasibleTestGraphs() {
		o, a := compute(t, g)
		levels := view.Levels(o.Tab, g, a.Phi)
		seen := make(map[int]bool)
		for v := 0; v < g.N(); v++ {
			l := o.NodeLabel(a, levels[a.Phi][v])
			if l < 1 || l > g.N() || seen[l] {
				t.Fatalf("%s: invalid or duplicate label %d", name, l)
			}
			seen[l] = true
		}
		if len(a.Tree) != g.N()-1 {
			t.Errorf("%s: tree has %d edges, want %d", name, len(a.Tree), g.N()-1)
		}
		// Every non-root label occurs as a child exactly once.
		children := map[int]bool{}
		for _, e := range a.Tree {
			if children[e.ChildLabel] {
				t.Errorf("%s: label %d is a child twice", name, e.ChildLabel)
			}
			children[e.ChildLabel] = true
		}
		if children[1] {
			t.Errorf("%s: root label 1 must not be a child", name)
		}
	}
}

func TestComputeAdvicePhiMatchesElectionIndex(t *testing.T) {
	for name, g := range feasibleTestGraphs() {
		o, a := compute(t, g)
		phi, ok := view.ElectionIndex(o.Tab, g)
		if !ok || phi != a.Phi {
			t.Errorf("%s: advice phi %d, election index %d", name, a.Phi, phi)
		}
	}
}

func TestComputeAdviceRejectsInfeasible(t *testing.T) {
	o := NewOracle(view.NewTable())
	for _, g := range []*graph.Graph{graph.Ring(6), graph.Hypercube(3)} {
		if _, err := o.ComputeAdvice(g); err == nil {
			t.Error("expected error for infeasible graph")
		}
	}
}

// TestInfeasibleErrorsWrapErrInfeasible pins the refusals of all three
// oracles to ErrInfeasible, under errors.Is, with their texts unchanged.
func TestInfeasibleErrorsWrapErrInfeasible(t *testing.T) {
	const symmetric = "advice: graph is infeasible (symmetric views)"
	o := NewOracle(view.NewTable())
	for _, c := range []struct {
		name string
		run  func() error
		want string
	}{
		{"ring", func() error { _, err := o.ComputeAdvice(graph.Ring(6)); return err }, symmetric},
		{"two nodes", func() error { _, err := o.ComputeAdvice(graph.Path(2)); return err },
			"advice: leader election on 2 node(s) is degenerate; model requires n >= 3"},
		{"naive ring", func() error { _, err := o.ComputeNaiveAdvice(graph.Ring(6), 0); return err }, symmetric},
		{"reference ring", func() error { _, err := o.ComputeAdviceReference(graph.Ring(6)); return err }, symmetric},
		{"reference one node", func() error { _, err := o.ComputeAdviceReference(graph.Star(0)); return err },
			"advice: leader election on 1 node(s) is degenerate; model requires n >= 3"},
	} {
		err := c.run()
		if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: %v does not wrap ErrInfeasible", c.name, err)
		} else if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

// Claim 3.7 made concrete: distinct views at every depth <= phi receive
// distinct labels in {1..#views at that depth}.
func TestLabelUniquenessAtAllDepths(t *testing.T) {
	for name, g := range feasibleTestGraphs() {
		o, a := compute(t, g)
		levels := view.Levels(o.Tab, g, a.Phi)
		for d := 1; d <= a.Phi; d++ {
			distinct := map[*view.View]bool{}
			for _, v := range levels[d] {
				distinct[v] = true
			}
			labels := map[int]*view.View{}
			for v := range distinct {
				l := o.Labeler.RetrieveLabel(v, a.E1, a.E2)
				if l < 1 || l > len(distinct) {
					t.Fatalf("%s depth %d: label %d out of [1,%d]", name, d, l, len(distinct))
				}
				if prev, dup := labels[l]; dup && prev != v {
					t.Fatalf("%s depth %d: duplicate label %d", name, d, l)
				}
				labels[l] = v
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, g := range feasibleTestGraphs() {
		o, a := compute(t, g)
		enc := a.Encode()
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if dec.Phi != a.Phi {
			t.Errorf("%s: phi mismatch", name)
		}
		if len(dec.Tree) != len(a.Tree) {
			t.Fatalf("%s: tree size mismatch", name)
		}
		for i := range dec.Tree {
			if dec.Tree[i] != a.Tree[i] {
				t.Errorf("%s: tree edge %d mismatch", name, i)
			}
		}
		// Decoded tries must label every node identically: check via
		// a fresh labeler over the same table.
		levels := view.Levels(o.Tab, g, a.Phi)
		lb2 := o.Labeler
		for v := 0; v < g.N(); v++ {
			if lb2.RetrieveLabel(levels[a.Phi][v], dec.E1, dec.E2) !=
				lb2.RetrieveLabel(levels[a.Phi][v], a.E1, a.E2) {
				t.Fatalf("%s: decoded tries label node %d differently", name, v)
			}
		}
		// Re-encoding is canonical.
		if !bits.Equal(dec.Encode(), enc) {
			t.Errorf("%s: re-encode differs", name)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, a := compute(t, graph.Lollipop(4, 2))
	enc := a.Encode()
	// Truncations and bit flips must be detected (or at minimum not
	// crash); most corruptions break the doubling code.
	var w bits.Writer
	for i := 0; i < enc.Len()-2; i++ {
		w.WriteBit(enc.Bit(i))
	}
	if _, err := Decode(w.String()); err == nil {
		t.Log("truncated advice decoded — checking structure is still rejected elsewhere")
	}
	if _, err := Decode(bits.New("10")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := Decode(bits.New("")); err == nil {
		t.Error("empty must fail")
	}
}

func TestPathToLeader(t *testing.T) {
	g := graph.Lollipop(5, 3)
	o, a := compute(t, g)
	levels := view.Levels(o.Tab, g, a.Phi)
	// Find the root node (label 1).
	root := -1
	for v := 0; v < g.N(); v++ {
		if o.NodeLabel(a, levels[a.Phi][v]) == 1 {
			root = v
		}
	}
	if root < 0 {
		t.Fatal("no root")
	}
	for v := 0; v < g.N(); v++ {
		x := o.NodeLabel(a, levels[a.Phi][v])
		ports, err := a.PathToLeader(x)
		if err != nil {
			t.Fatalf("PathToLeader(%d): %v", x, err)
		}
		nodes, err := g.FollowPath(v, ports)
		if err != nil {
			t.Fatalf("path invalid from node %d: %v", v, err)
		}
		if nodes[len(nodes)-1] != root {
			t.Errorf("node %d path ends at %d, want root %d", v, nodes[len(nodes)-1], root)
		}
		if !graph.IsSimplePath(nodes) {
			t.Errorf("node %d path not simple", v)
		}
	}
	if _, err := a.PathToLeader(999); err == nil {
		t.Error("unknown label should fail")
	}
}

// Theorem 3.1 size bound: advice length stays within a modest constant of
// n log2 n across a growing family.
func TestAdviceSizeIsNLogN(t *testing.T) {
	worst := 0.0
	for _, n := range []int{10, 20, 40, 80} {
		g := graph.RandomConnected(n, n, int64(n))
		o := NewOracle(view.NewTable())
		a, err := o.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ratio := float64(a.Encode().Len()) / (float64(n) * math.Log2(float64(n)))
		if ratio > worst {
			worst = ratio
		}
	}
	// The constant is implementation-dependent; it must just be O(1).
	// Empirically it is ~30-60 for these graphs; fail on blow-up.
	if worst > 500 {
		t.Errorf("advice size ratio to n log n = %.1f looks super-linear", worst)
	}
}

// ComputeAdvice must reject every n < 3 with the model-bound error, not
// just n == 1: the two-node graph used to fall through to the generic
// infeasibility message.
func TestSmallGraphsRejected(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(0), graph.Path(2)} {
		o := NewOracle(view.NewTable())
		_, err := o.ComputeAdvice(g)
		if err == nil {
			t.Fatalf("n=%d: expected error", g.N())
		}
		if !strings.Contains(err.Error(), "n >= 3") {
			t.Errorf("n=%d: error %q does not state the n >= 3 model bound", g.N(), err)
		}
	}
}
