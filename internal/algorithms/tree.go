package algorithms

import (
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/sim"
	"repro/internal/view"
)

// TreeElect is the advice-free election algorithm for trees discussed in
// the paper's related-work comparison (and in Glacet–Miller–Pelc): in a
// tree, a node can reconstruct the entire map from its view — every
// non-backtracking walk ends at a leaf within its eccentricity — so
// after at most D rounds it elects with no advice at all. This is the
// contrast the paper draws with arbitrary graphs, where NO advice-free
// election exists (Proposition 4.1); running TreeElect on a non-tree
// never terminates its reconstruction and the engine's round budget
// turns that into an error.
type TreeElect struct {
	Tab *view.Table
}

// NewTreeElectFactory returns the factory for TreeElect.
func NewTreeElectFactory(tab *view.Table) sim.Factory {
	prog := &TreeElect{Tab: tab}
	return func(simID, deg int) sim.Decider { return prog }
}

// Decide implements sim.Decider: try to reconstruct the tree from the
// current view; once complete, elect the node with the smallest view in
// the reconstruction.
func (t *TreeElect) Decide(r int, b *view.View) ([]int, bool) {
	g, ok := reconstructTree(b)
	if !ok {
		return nil, false
	}
	// The local copy g is isomorphic to the real tree, rooted at this
	// node (sim id 0 in the copy). Elect the unique minimum-view node.
	phi, feasible := part.ElectionIndex(g)
	if !feasible {
		// A symmetric tree (e.g. a 2-path): election impossible; output
		// self-election so that the verifier reports the failure.
		return []int{}, true
	}
	tab := view.NewTable()
	levels := view.Levels(tab, g, phi)
	target := tab.Min(levels[phi])
	leader := -1
	for v, w := range levels[phi] {
		if w == target {
			leader = v
		}
	}
	return lexShortestGraphPath(g, 0, leader), true
}

// reconstructTree attempts to rebuild the underlying tree from the view
// b by non-backtracking expansion. It reports ok = false if some
// non-backtracking branch is still open at the view's horizon (the node
// must keep communicating), and otherwise returns the reconstructed
// port-labeled tree with the view's root as node 0.
//
// On non-tree graphs a cycle keeps every branch open forever, so ok
// stays false at every depth — reconstruction never completes.
func reconstructTree(b *view.View) (*graph.Graph, bool) {
	// First pass: check completeness and count nodes.
	count := 0
	var check func(v *view.View, entryPort int) bool
	check = func(v *view.View, entryPort int) bool {
		count++
		if v.Deg == 1 && entryPort >= 0 {
			return true // leaf reached: branch closed
		}
		if v.Depth == 0 {
			return false // horizon reached with open branches
		}
		for p, e := range v.Edges {
			if p == entryPort {
				continue
			}
			if !check(e.Child, e.RemotePort) {
				return false
			}
		}
		return true
	}
	if !check(b, -1) {
		return nil, false
	}
	bld := graph.NewBuilder(count)
	next := 0
	var build func(v *view.View, entryPort, id int)
	build = func(v *view.View, entryPort, id int) {
		if v.Deg == 1 && entryPort >= 0 {
			return
		}
		for p, e := range v.Edges {
			if p == entryPort {
				continue
			}
			next++
			child := next
			bld.AddEdge(id, p, child, e.RemotePort)
			build(e.Child, e.RemotePort, child)
		}
	}
	build(b, -1, 0)
	g, err := bld.Finalize()
	if err != nil {
		return nil, false
	}
	return g, true
}
