//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package advice

import (
	"testing"

	"repro/internal/graph"
)

// TestPathToLeaderAllocs pins PathToLeader, on the trie advice and on
// the naive advice, to one allocation — the path itself — once the
// parent index exists.
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
		if got := testing.AllocsPerRun(100, func() { _, _ = path(x) }); got != 1 {
			t.Errorf("%s: PathToLeader allocates %v times, want 1", name, got)
		}
	}
}
