package election

import (
	"testing"
)

func TestPublicMinTimePipeline(t *testing.T) {
	s := NewSystem()
	g := Lollipop(5, 3)
	res, err := s.RunMinTime(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	phi, ok := s.ElectionIndex(g)
	if !ok {
		t.Fatal("infeasible")
	}
	if res.Time != phi {
		t.Errorf("time %d, want %d", res.Time, phi)
	}
	if res.AdviceBits <= 0 {
		t.Error("advice size not reported")
	}
	if res.Leader < 0 || res.Leader >= g.N() {
		t.Error("bad leader")
	}
}

func TestPublicMinTimeConcurrentAndWire(t *testing.T) {
	s := NewSystem()
	g := RandomConnected(12, 6, 3)
	a, err := s.RunMinTime(g, Options{Realization: Goroutines{}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunMinTime(g, Options{Realization: Goroutines{Wire: true}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Leader != b.Leader || a.Time != b.Time {
		t.Error("engines disagree")
	}
}

func TestPublicInfeasibleRejected(t *testing.T) {
	s := NewSystem()
	for _, g := range []*Graph{Ring(6), Hypercube(3)} {
		if _, _, err := s.ComputeAdvice(g); err == nil {
			t.Error("expected infeasibility error")
		}
		if _, err := s.RunMilestone(g, 1, Options{}); err == nil {
			t.Error("milestone on infeasible should fail")
		}
		if _, err := s.RunFullMap(g, Options{}); err == nil {
			t.Error("full map on infeasible should fail")
		}
	}
}

func TestPublicGenericAndMilestones(t *testing.T) {
	s := NewSystem()
	g := Lollipop(4, 6)
	phi, _ := s.ElectionIndex(g)
	res, err := s.RunGeneric(g, phi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time > g.Diameter()+phi+1 {
		t.Errorf("Generic too slow: %d", res.Time)
	}
	for i := 1; i <= 4; i++ {
		r, err := s.RunMilestone(g, i, Options{})
		if err != nil {
			t.Fatalf("milestone %d: %v", i, err)
		}
		if r.Leader != res.Leader {
			t.Errorf("milestone %d elected a different leader", i)
		}
	}
	if _, err := s.RunGeneric(g, 0, Options{}); err == nil {
		t.Error("Generic(0) should be rejected")
	}
}

func TestPublicFullMapAndDPlusPhi(t *testing.T) {
	s := NewSystem()
	g := Grid(4, 3)
	phi, _ := s.ElectionIndex(g)
	fm, err := s.RunFullMap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fm.Time != phi {
		t.Errorf("full map time %d, want %d", fm.Time, phi)
	}
	dp, err := s.RunDPlusPhi(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Time != g.Diameter()+phi {
		t.Errorf("D+phi time %d, want %d", dp.Time, g.Diameter()+phi)
	}
}

func TestPublicFamiliesExported(t *testing.T) {
	s := NewSystem()
	hk := BuildHk(5, 3)
	if phi, ok := s.ElectionIndex(hk.G); !ok || phi != 1 {
		t.Error("Hk should have phi = 1")
	}
	nk := BuildNecklace(4, 3, 2, NecklaceCode(4, 3, 0))
	if phi, ok := s.ElectionIndex(nk.G); !ok || phi != 2 {
		t.Error("necklace phi wrong")
	}
	m := BuildS0Member(1, 2, 0)
	if phi, ok := s.ElectionIndex(m.G); !ok || phi != 1 {
		t.Error("S0 phi wrong")
	}
	hr := BuildHairyRing([]int{2, 0, 3, 1})
	if !s.Feasible(hr.G) {
		t.Error("hairy ring should be feasible")
	}
}

// Election on a lower-bound family member end to end: the advice
// machinery must handle the adversarial constructions too.
func TestPublicElectOnFamilies(t *testing.T) {
	s := NewSystem()
	for name, g := range map[string]*Graph{
		"Gk":       BuildGkMember(5, 3, []int{0, 2, 1, 4, 3}).G,
		"necklace": BuildNecklace(4, 3, 3, NecklaceCode(4, 3, 1)).G,
		"s0":       BuildS0Member(1, 2, 0).G,
		"hairy":    BuildHairyRing([]int{2, 0, 3, 1}).G,
	} {
		res, err := s.RunMinTime(g, Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		phi, _ := s.ElectionIndex(g)
		if res.Time != phi {
			t.Errorf("%s: time %d != phi %d", name, res.Time, phi)
		}
	}
}

func TestMilestoneAdviceExported(t *testing.T) {
	adv, p := MilestoneAdvice(2, 9)
	if p < 9 {
		t.Error("parameter below phi")
	}
	if adv.Len() == 0 {
		t.Error("empty advice")
	}
}

func TestVerifyExported(t *testing.T) {
	g := Path(3)
	if _, err := Verify(g, [][]int{{0, 0}, {}, {0, 1}}); err != nil {
		t.Error(err)
	}
}
