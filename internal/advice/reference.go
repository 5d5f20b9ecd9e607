package advice

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/trie"
	"repro/internal/view"
)

// ComputeAdviceReference is the Levels-based form of Algorithm 5 that
// ComputeAdvice replaced: it interns one view per node per depth up to
// φ (view.Levels), reads the distinct views of each depth off the
// refinement trace, and builds every trie and label sequentially. It is
// kept — not for production use — as the oracle the class-sharing path
// is pinned against: TestOracleEquivalence in the root package checks
// bit-identical Encode() output on every graph family and a seeded
// random sweep.
func (o *Oracle) ComputeAdviceReference(g *graph.Graph) (*Advice, error) {
	phi, reps, feasible := part.ElectionTrace(g)
	if !feasible {
		return nil, errSymmetric
	}
	if g.N() < 3 {
		return nil, errDegenerate(g.N())
	}
	levels := view.Levels(o.Tab, g, phi)
	lb := o.Labeler

	// distinctAt(i) is the distinct depth-i views in canonical order:
	// one view per refinement class, then sorted (the sort is
	// immaterial to the output — BuildTrie is a function of the set —
	// but it is what the historical oracle did, so the reference keeps
	// it).
	distinctAt := func(i int) []*view.View {
		out := make([]*view.View, len(reps[i]))
		for c, rep := range reps[i] {
			out[c] = levels[i][rep]
		}
		o.Tab.Sort(out)
		return out
	}

	// E1 discriminates all depth-1 views.
	e1 := lb.BuildTrie(distinctAt(1), nil, nil)

	// E2: for each depth i = 2..phi, for each depth-(i-1) view B' (in
	// label order j), if several depth-i views share the truncation B',
	// add the couple (j, BuildTrie of that set).
	var e2 trie.E2
	for i := 2; i <= phi; i++ {
		prev := distinctAt(i - 1)
		byTrunc := make(map[*view.View][]*view.View)
		for _, b := range distinctAt(i) {
			tr := o.Tab.Truncate(b)
			byTrunc[tr] = append(byTrunc[tr], b)
		}
		var couples []trie.Couple
		for _, bPrime := range prev {
			x := byTrunc[bPrime]
			if len(x) > 1 {
				j := lb.RetrieveLabel(bPrime, e1, e2)
				couples = append(couples, trie.Couple{J: j, T: lb.BuildTrie(x, e1, e2)})
			}
		}
		sort.Slice(couples, func(a, b int) bool { return couples[a].J < couples[b].J })
		e2 = append(e2, trie.NewLevelList(i, couples))
	}

	// Final labels at depth phi; find the root r with label 1 and build
	// the canonical BFS tree with labeled nodes.
	labelOf := make([]int, g.N())
	root := -1
	seenLabel := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		l := lb.RetrieveLabel(levels[phi][v], e1, e2)
		if l < 1 || l > g.N() {
			return nil, fmt.Errorf("advice: label %d out of range [1,%d] at node %d", l, g.N(), v)
		}
		if u, dup := seenLabel[l]; dup {
			return nil, fmt.Errorf("advice: label %d assigned to both nodes %d and %d", l, u, v)
		}
		seenLabel[l] = v
		labelOf[v] = l
		if l == 1 {
			root = v
		}
	}
	if root < 0 {
		return nil, errors.New("advice: no node received label 1")
	}
	var tree []LabeledTreeEdge
	for _, e := range g.CanonicalBFSTree(root) {
		tree = append(tree, LabeledTreeEdge{
			ParentLabel: labelOf[e.Parent],
			ChildLabel:  labelOf[e.Child],
			PortParent:  e.PortParent,
			PortChild:   e.PortChild,
		})
	}
	sort.Slice(tree, func(i, j int) bool {
		if tree[i].ParentLabel != tree[j].ParentLabel {
			return tree[i].ParentLabel < tree[j].ParentLabel
		}
		return tree[i].PortParent < tree[j].PortParent
	})
	return &Advice{Phi: phi, E1: e1, E2: e2, Tree: tree}, nil
}
