package election

import (
	"testing"
)

// Deep election indices: the lollipop(3, t) family reaches φ up to ~10,
// exercising every E2 level of the trie machinery and all four
// milestones' arithmetic end to end.
func TestDeepPhiSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	for _, tail := range []int{6, 10, 14, 18, 22} {
		g := Lollipop(3, tail)
		s := NewSystem()
		phi, ok := s.ElectionIndex(g)
		if !ok {
			t.Fatalf("tail %d: infeasible", tail)
		}
		res, err := s.RunMinTime(g, Options{})
		if err != nil {
			t.Fatalf("tail %d: %v", tail, err)
		}
		if res.Time != phi {
			t.Errorf("tail %d: time %d != phi %d", tail, res.Time, phi)
		}
		for i := 1; i <= 4; i++ {
			r, err := s.RunMilestone(g, i, Options{})
			if err != nil {
				t.Fatalf("tail %d milestone %d: %v", tail, i, err)
			}
			if r.Leader != res.Leader {
				t.Errorf("tail %d milestone %d: different leader", tail, i)
			}
		}
	}
}

// φ grows monotonically with the tail on this family — the knob the
// tradeoff example and the milestone experiments rely on.
func TestLollipopPhiGrows(t *testing.T) {
	s := NewSystem()
	prev := 0
	for _, tail := range []int{2, 6, 10, 14} {
		phi, ok := s.ElectionIndex(Lollipop(3, tail))
		if !ok {
			t.Fatal("infeasible")
		}
		if phi < prev {
			t.Errorf("phi decreased: %d after %d", phi, prev)
		}
		prev = phi
	}
	if prev < 4 {
		t.Errorf("family does not reach deep phi: max %d", prev)
	}
}

// Stress: a larger network end to end on all three engines.
func TestStressLargerNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("stress is slow")
	}
	g := RandomConnected(300, 200, 17)
	s := NewSystem()
	phi, ok := s.ElectionIndex(g)
	if !ok {
		t.Skip("unlucky sample")
	}
	seq, err := s.RunMinTime(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := s.RunMinTime(g, Options{Realization: Goroutines{}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Leader != conc.Leader || seq.Time != phi || conc.Time != phi {
		t.Error("engines disagree at scale")
	}
	gen, err := s.RunGeneric(g, phi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Time > g.Diameter()+phi+1 {
		t.Errorf("Generic too slow at scale: %d", gen.Time)
	}
}

// All feasible generator outputs elect successfully; all symmetric ones
// are rejected — a catalog-level regression test.
func TestGeneratorCatalog(t *testing.T) {
	feasible := map[string]*Graph{
		"path7":       Path(7),
		"lollipop":    Lollipop(5, 4),
		"grid43":      Grid(4, 3),
		"k23":         CompleteBipartite(2, 3),
		"wheeltail":   WheelWithTail(5, 2),
		"broom":       Broom(3, 4),
		"caterpillar": Caterpillar([]int{2, 0, 1, 3}),
		"hairy":       BuildHairyRing([]int{1, 0, 2, 0}).G,
		// Port numbers break the topological symmetry of these three:
		// the canonical port assignments encode node positions.
		"binarytree": BinaryTree(3),
		"wheel":      Wheel(5),
		"clique":     Clique(5),
	}
	infeasible := map[string]*Graph{
		"ring":      Ring(8),
		"hypercube": Hypercube(3),
		"torus":     Torus(3, 3),
	}
	s := NewSystem()
	for name, g := range feasible {
		if !s.Feasible(g) {
			t.Errorf("%s should be feasible", name)
			continue
		}
		if _, err := s.RunMinTime(g, Options{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, g := range infeasible {
		if s.Feasible(g) {
			t.Errorf("%s should be infeasible", name)
		}
	}
}
