package advice

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/trie"
	"repro/internal/view"
)

// The size accounting inside the proof of Theorem 3.1: E1 is a trie of
// size 2|S1|-1, and the tries inside E2 have total size at most
// 3(|S_phi| - |S_2|) <= 3n (condition C2, equation 13).
func TestAdviceTrieSizeAccounting(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Lollipop(3, 10), // deep phi
		graph.Lollipop(3, 18), // deeper
		graph.Lollipop(8, 10), // high degree, phi ~ 4
		graph.RandomConnected(40, 20, 5),
	} {
		tab := view.NewTable()
		o := NewOracle(tab)
		a, err := o.ComputeAdvice(g)
		if err != nil {
			t.Fatal(err)
		}
		// |S1| = number of distinct depth-1 views.
		s1 := map[*view.View]bool{}
		for _, v := range view.Levels(tab, g, 1)[1] {
			s1[v] = true
		}
		if a.E1.Size() != 2*len(s1)-1 {
			t.Errorf("E1 size %d, want 2|S1|-1 = %d", a.E1.Size(), 2*len(s1)-1)
		}
		total := 0
		for _, level := range a.E2 {
			for _, c := range level.Couples {
				total += c.T.Size()
			}
		}
		if total > 3*g.N() {
			t.Errorf("E2 trie sizes sum to %d > 3n = %d", total, 3*g.N())
		}
	}
}

// Every internal query of every trie in the advice is well-formed: the
// depth-1 trie uses kinds 0/1 with positive second component; deeper
// tries use port indices below the maximum degree and positive labels.
func TestAdviceTrieQueriesWellFormed(t *testing.T) {
	g := graph.Lollipop(3, 14)
	o := NewOracle(view.NewTable())
	a, err := o.ComputeAdvice(g)
	if err != nil {
		t.Fatal(err)
	}
	// queries calls check on the (A, B) of every internal node of tr,
	// read off its preorder token stream.
	queries := func(tr trie.Trie, check func(a, b int)) {
		for tok := tr.Tokens(); len(tok) > 0; {
			if tok[0] == 0 {
				tok = tok[1:]
				continue
			}
			check(tok[1], tok[2])
			tok = tok[3:]
		}
	}
	queries(a.E1, func(kind, b int) {
		if kind != 0 && kind != 1 {
			t.Errorf("depth-1 query kind %d", kind)
		}
		if b < 1 {
			t.Errorf("depth-1 query parameter %d", b)
		}
	})
	maxDeg := g.MaxDegree()
	for _, level := range a.E2 {
		for _, c := range level.Couples {
			if c.J < 1 || c.J > g.N() {
				t.Errorf("couple index %d out of [1,n]", c.J)
			}
			queries(c.T, func(port, label int) {
				if port < 0 || port >= maxDeg {
					t.Errorf("deep query port %d out of [0,%d)", port, maxDeg)
				}
				if label < 1 || label > g.N() {
					t.Errorf("deep query label %d out of [1,n]", label)
				}
			})
		}
	}
	// E2 levels cover exactly depths 2..phi.
	if len(a.E2) != a.Phi-1 {
		t.Errorf("E2 has %d levels, want phi-1 = %d", len(a.E2), a.Phi-1)
	}
	for i, level := range a.E2 {
		if level.Depth != i+2 {
			t.Errorf("E2 level %d has depth %d", i, level.Depth)
		}
	}
}

func TestValidateCatchesBadTrees(t *testing.T) {
	bad := []*Advice{
		{Phi: 1, Tree: []LabeledTreeEdge{{ParentLabel: 1, ChildLabel: 1, PortParent: 0, PortChild: 0}}},
		{Phi: 1, Tree: []LabeledTreeEdge{{ParentLabel: 5, ChildLabel: 2, PortParent: 0, PortChild: 0}}},
		{Phi: 1, Tree: []LabeledTreeEdge{
			{ParentLabel: 3, ChildLabel: 2, PortParent: 0, PortChild: 0},
			{ParentLabel: 2, ChildLabel: 3, PortParent: 1, PortChild: 1},
		}},
		{Phi: 1, Tree: []LabeledTreeEdge{
			{ParentLabel: 1, ChildLabel: 2, PortParent: 0, PortChild: 0},
			{ParentLabel: 1, ChildLabel: 2, PortParent: 1, PortChild: 1},
		}},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	good := &Advice{Phi: 1, Tree: []LabeledTreeEdge{
		{ParentLabel: 1, ChildLabel: 2, PortParent: 0, PortChild: 0},
		{ParentLabel: 2, ChildLabel: 3, PortParent: 1, PortChild: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
}
