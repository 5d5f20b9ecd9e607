package election

import (
	"testing"
)

func TestAsyncEngineEndToEnd(t *testing.T) {
	g := Lollipop(5, 3)
	s := NewSystem()
	syncRes, err := s.RunMinTime(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		res, err := s.RunMinTime(g, Options{Realization: Async{Seed: seed}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Leader != syncRes.Leader || res.Time != syncRes.Time {
			t.Errorf("seed %d: async result differs from synchronous", seed)
		}
	}
}

func TestNaiveBaselinePublic(t *testing.T) {
	g := Lollipop(5, 3)
	s := NewSystem()
	trie, err := s.RunMinTime(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := s.RunNaiveMinTime(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Leader != trie.Leader {
		t.Error("oracles disagree on the leader")
	}
	if naive.Time != trie.Time {
		t.Error("both run in time phi")
	}
	if naive.AdviceBits <= trie.AdviceBits {
		t.Errorf("naive advice %d bits should exceed trie advice %d bits",
			naive.AdviceBits, trie.AdviceBits)
	}
}

func TestNaiveBaselineCap(t *testing.T) {
	g := Lollipop(8, 14)
	s := NewSystem()
	if _, err := s.RunNaiveMinTime(g, 10_000, Options{}); err == nil {
		t.Skip("graph too tame for cap")
	}
}

func TestTreeElectPublic(t *testing.T) {
	g := Path(5)
	s := NewSystem()
	res, err := s.RunTreeElect(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time > g.Diameter() {
		t.Errorf("tree election time %d > D", res.Time)
	}
	if res.AdviceBits != 0 {
		t.Error("tree election needs no advice")
	}
	// Non-trees must not terminate.
	if _, err := s.RunTreeElect(Lollipop(4, 2), Options{}); err == nil {
		t.Error("tree election on a non-tree should fail")
	}
}

func TestStablePartitionPublic(t *testing.T) {
	s := NewSystem()
	// Ring(6): all nodes equivalent — one class.
	classes, _ := s.StablePartition(Ring(6))
	for _, c := range classes {
		if c != 0 {
			t.Error("ring nodes should be one class")
		}
	}
	// Feasible graph: discrete partition.
	g := Lollipop(5, 3)
	classes, depth := s.StablePartition(g)
	seen := map[int]bool{}
	for _, c := range classes {
		if seen[c] {
			t.Error("feasible graph partition should be discrete")
		}
		seen[c] = true
	}
	phi, _ := s.ElectionIndex(g)
	if depth > phi {
		t.Errorf("stabilization depth %d should be <= phi %d", depth, phi)
	}
	// Hypercube: symmetric, one class.
	classes, _ = s.StablePartition(Hypercube(3))
	for _, c := range classes {
		if c != 0 {
			t.Error("hypercube nodes should be one class")
		}
	}
}

// Failure injection: advice computed for one graph but delivered to the
// nodes of another must never produce a silently wrong election — either
// decoding fails, the run errors, or verification rejects the outputs.
func TestWrongAdviceDetected(t *testing.T) {
	s := NewSystem()
	g1 := Lollipop(5, 3)
	g2 := Lollipop(4, 6)
	_, adv1, err := s.ComputeAdvice(g1)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.RunElect(g2, adv1, Options{}); err == nil {
		// A successful verified election with foreign advice can only
		// mean the advice was accidentally valid for g2 as well — the
		// leader must then be consistent. Re-run to confirm determinism.
		res2, err2 := s.RunElect(g2, adv1, Options{})
		if err2 != nil || res2.Leader != res.Leader {
			t.Error("foreign advice produced inconsistent elections")
		}
	}
}

// Failure injection: flipping each bit of the advice in turn must never
// yield a verified election with a different leader than the true one —
// corruption is either detected or harmless.
func TestCorruptedAdviceNeverMisleads(t *testing.T) {
	s := NewSystem()
	g := Path(5)
	_, adv, err := s.ComputeAdvice(g)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := s.RunElect(g, adv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := adv.Len() / 40
	if step == 0 {
		step = 1
	}
	for i := 0; i < adv.Len(); i += step {
		corrupted := flipBit(adv, i)
		res, err := s.RunElect(g, corrupted, Options{MaxRounds: 40})
		if err != nil {
			continue // detected: decode failure, run failure, or rejected verification
		}
		if res.Leader != truth.Leader {
			t.Errorf("bit %d flip yielded a VERIFIED election of a different leader %d (truth %d)",
				i, res.Leader, truth.Leader)
		}
	}
}

func flipBit(b Bits, i int) Bits {
	var s string
	for j := 0; j < b.Len(); j++ {
		bit := b.Bit(j)
		if j == i {
			bit = !bit
		}
		if bit {
			s += "1"
		} else {
			s += "0"
		}
	}
	return BitsFromString(s)
}
