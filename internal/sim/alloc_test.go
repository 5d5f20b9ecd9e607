//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package sim

import (
	"testing"

	"repro/internal/graph"
)

// bfsOutputs returns, for every node of g, the port sequence of its path
// to node 0 in the canonical BFS tree: a correct election's outputs.
func bfsOutputs(g *graph.Graph) [][]int {
	up := make([]graph.TreeEdge, g.N())
	for _, e := range g.CanonicalBFSTree(0) {
		up[e.Child] = e
	}
	outs := make([][]int, g.N())
	for v := range outs {
		outs[v] = []int{}
		for cur := v; cur != 0; cur = up[cur].Parent {
			outs[v] = append(outs[v], up[cur].PortChild, up[cur].PortParent)
		}
	}
	return outs
}

// TestVerifyAllocsIndependentOfN pins Verify to a fixed number of
// allocations — the visited stamps and one path buffer — however many
// nodes and however long the paths.
func TestVerifyAllocsIndependentOfN(t *testing.T) {
	allocs := func(g *graph.Graph) float64 {
		outs := bfsOutputs(g)
		if _, err := Verify(g, outs); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		return testing.AllocsPerRun(5, func() { _, _ = Verify(g, outs) })
	}
	small, large := allocs(graph.Grid(32, 32)), allocs(graph.Grid(64, 128))
	if small != large {
		t.Fatalf("Verify allocates %v times on a 1k-node grid and %v on an 8k-node grid", small, large)
	}
}
