//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package sim

import (
	"testing"

	"repro/internal/graph"
)

// TestVerifyAllocsIndependentOfN pins Verify to a fixed number of
// allocations however many nodes and however long the paths: on BFS
// outputs, which the suffix pass accepts, and on a ring election it
// refuses (node 1 goes the long way round), which the walk then
// accepts with its visited stamps and one path buffer.
func TestVerifyAllocsIndependentOfN(t *testing.T) {
	allocs := func(g *graph.Graph, outs [][]int) float64 {
		if _, err := Verify(g, outs); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		return testing.AllocsPerRun(5, func() { _, _ = Verify(g, outs) })
	}
	small, large := graph.Grid(32, 32), graph.Grid(64, 128)
	if s, l := allocs(small, treeOutputs(small, 0, formFresh)), allocs(large, treeOutputs(large, 0, formFresh)); s != l {
		t.Fatalf("Verify allocates %v times on a 1k-node grid and %v on an 8k-node grid", s, l)
	}
	small, large = graph.Ring(200), graph.Ring(800)
	s, l := allocs(small, ringLongWay(t, small)), allocs(large, ringLongWay(t, large))
	if s != l || s == 0 {
		t.Fatalf("Verify allocates %v times on a 200-node ring and %v on an 800-node ring, want the walk's fixed count", s, l)
	}
}
