//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package advice

import (
	"testing"

	"repro/internal/graph"
)

// TestPathToLeaderAllocs pins PathToLeader, on the trie advice and on
// the naive advice, to no allocation once the path table exists, and
// building the table to a fixed number of allocations: the same on a
// grid and on one four times larger.
func TestPathToLeaderAllocs(t *testing.T) {
	g := graph.Lollipop(3, 14)
	o, a := compute(t, g)
	na, err := o.ComputeNaiveAdvice(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]func(int) ([]int, error){
		"trie":  a.PathToLeader,
		"naive": na.PathToLeader,
	} {
		x, longest := 0, 0
		for label := 1; label <= g.N(); label++ {
			p, err := path(label)
			if err != nil {
				t.Fatalf("%s: PathToLeader(%d): %v", name, label, err)
			}
			if len(p) > longest {
				x, longest = label, len(p)
			}
		}
		if longest < 2*10 {
			t.Fatalf("%s: the farthest label is %d hops from the leader, want >= 10", name, longest/2)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = path(x) }); got != 0 {
			t.Errorf("%s: PathToLeader allocates %v times, want 0", name, got)
		}
	}

	build := func(g *graph.Graph) float64 {
		_, a := compute(t, g)
		return testing.AllocsPerRun(5, func() { _, _ = (&Advice{Tree: a.Tree}).PathToLeader(2) })
	}
	small, large := build(graph.Grid(20, 21)), build(graph.Grid(40, 41))
	if small != large {
		t.Errorf("building the path table allocates %v times on 420 labels and %v on 1,640", small, large)
	}
}

// TestAdviceCodecAllocs pins Encode to one allocation, its output, and
// Decode to as many allocations on a random graph four times larger with
// the same φ: what it allocates is fixed per E2 level, not per token.
func TestAdviceCodecAllocs(t *testing.T) {
	decodeAllocs := func(g *graph.Graph) (int, float64) {
		_, a := compute(t, g)
		if got := testing.AllocsPerRun(5, func() { a.Encode() }); got != 1 {
			t.Errorf("Encode of the advice of %d nodes allocates %v times, want 1", g.N(), got)
		}
		enc := a.Encode()
		return a.Phi, testing.AllocsPerRun(5, func() {
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
	}
	phiSmall, small := decodeAllocs(graph.RandomConnected(1000, 500, 2))
	phiLarge, large := decodeAllocs(graph.RandomConnected(4000, 2000, 2))
	if phiSmall != phiLarge {
		t.Fatalf("φ is %d on 1,000 nodes and %d on 4,000", phiSmall, phiLarge)
	}
	if small != large {
		t.Errorf("Decode allocates %v times on 1,000 nodes and %v on 4,000 (φ = %d)", small, large, phiSmall)
	}
}

// TestDepth1Allocs pins the oracle's depth-1 pass, which encodes every
// depth-1 class into one shared buffer and builds E1 over them, to the
// same number of allocations on a random graph and on one four times
// larger.
func TestDepth1Allocs(t *testing.T) {
	allocs := func(g *graph.Graph) float64 {
		q := newQuotient(g)
		if !q.step() {
			t.Fatal("depth 1 does not split")
		}
		return testing.AllocsPerRun(5, func() { q.depth1() })
	}
	small, large := allocs(graph.RandomConnected(1000, 500, 2)), allocs(graph.RandomConnected(4000, 2000, 2))
	if small != large {
		t.Errorf("the depth-1 pass allocates %v times on 1,000 nodes and %v on 4,000", small, large)
	}
}
