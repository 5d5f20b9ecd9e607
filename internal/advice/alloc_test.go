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
