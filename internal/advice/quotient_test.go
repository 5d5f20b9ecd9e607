package advice

import (
	"slices"
	"testing"

	"repro/internal/classviews"
	"repro/internal/families"
	"repro/internal/graph"
	"repro/internal/trie"
	"repro/internal/view"
)

// quotientFamilies is one member of every graph family in the
// repository — the paper's constructions and the generators, feasible
// and not — plus shuffled and random graphs.
func quotientFamilies() map[string]*graph.Graph {
	zg, _ := families.ZLockGraph(5)
	h1 := families.BuildHairyRing([]int{2, 0, 3, 1})
	h2 := families.BuildHairyRing([]int{1, 4, 0, 2})
	s0a := families.BuildS0Member(1, 2, 0).Locked()
	s0b := families.BuildS0Member(1, 2, 1).Locked()
	x := max(s0a.G.MaxDegree(), s0b.G.MaxDegree())
	return map[string]*graph.Graph{
		"hk":          families.BuildHk(5, 3).G,
		"gk-member":   families.BuildGkMember(5, 3, []int{0, 2, 1, 4, 3}).G,
		"necklace":    families.BuildNecklace(4, 3, 3, families.NecklaceCode(4, 3, 1)).G,
		"fx":          families.FXGraph(3, 1),
		"s0":          families.BuildS0Member(1, 2, 0).G,
		"zlock":       zg,
		"merge":       families.Merge(s0a, s0b, families.MergeParams{Ell: 2, X: x, ChainLen: 4}).G,
		"hairy":       h1.G,
		"composed":    families.BuildComposed([]families.Cut{h1.CutAt(0), h2.CutAt(0)}, 6, 7).H.G,
		"ring":        graph.Ring(6),
		"path":        graph.Path(7),
		"clique":      graph.Clique(5),
		"star":        graph.Star(6),
		"k-bipartite": graph.CompleteBipartite(3, 4),
		"grid":        graph.Grid(4, 3),
		"hypercube":   graph.ShufflePorts(graph.Hypercube(4), 2),
		"torus":       graph.ShufflePorts(graph.Torus(4, 5), 3),
		"lollipop":    graph.Lollipop(3, 14),
		"binary-tree": graph.BinaryTree(4),
		"caterpillar": graph.Caterpillar([]int{2, 0, 1, 3}),
		"wheel":       graph.Wheel(6),
		"wheel-tail":  graph.WheelWithTail(6, 3),
		"broom":       graph.Broom(3, 4),
		"random-60":   graph.RandomConnected(60, 20, 2),
		"random-200":  graph.RandomConnected(200, 40, 5),
	}
}

// TestSiblingRanksMatchCompare pins the oracle's own evaluation of the
// canonical order: on every family and at every depth below φ, the
// classes with one parent — the siblings whose order the next depth's
// tries read — are ranked 0..s−1 in Table.Compare order of their
// classviews class views (the same classes, one interned view each).
// Depth 0's classes have no parent and form one group. The quotient
// advances as ComputeAdviceCtx advances it.
func TestSiblingRanksMatchCompare(t *testing.T) {
	compared := 0
	for name, g := range quotientFamilies() {
		tab := view.NewTable()
		mat := classviews.New(tab, g)
		q := newQuotient(g)
		var e1 trie.Trie
		var e2 trie.E2
		for q.cur.k < g.N() {
			views := mat.Views()
			if len(views) != q.cur.k {
				t.Fatalf("%s depth %d: %d class views, %d quotient classes", name, q.depth, len(views), q.cur.k)
			}
			groups := make([][]int32, max(q.prev.k, 1))
			for c := range int32(q.cur.k) {
				p := int32(0)
				if q.depth > 0 {
					p = q.parent[c]
				}
				groups[p] = append(groups[p], c)
			}
			for _, members := range groups {
				slices.SortFunc(members, func(a, b int32) int { return tab.Compare(views[a], views[b]) })
				for i, c := range members {
					if q.cur.rank[c] != int32(i) {
						t.Fatalf("%s depth %d: class %d has sibling rank %d, Table.Compare places it %d of %d", name, q.depth, c, q.cur.rank[c], i, len(members))
					}
				}
				if len(members) > 1 {
					compared++
				}
			}
			ok, err := q.next(&e1, &e2)
			if err != nil {
				t.Fatalf("%s depth %d: %v", name, q.depth+1, err)
			}
			if !ok {
				break
			}
			mat.Step()
		}
	}
	if compared == 0 {
		t.Fatal("no group of two or more siblings to compare")
	}
}

// TestComputeAdviceInternsNoViews checks that the oracle computes on the
// class quotient alone: its table is as empty afterwards as before.
func TestComputeAdviceInternsNoViews(t *testing.T) {
	for name, g := range quotientFamilies() {
		tab := view.NewTable()
		if _, err := NewOracle(tab).ComputeAdvice(g); err != nil {
			continue // infeasible members
		}
		if tab.Size() != 0 {
			t.Errorf("%s: ComputeAdvice interned %d views", name, tab.Size())
		}
	}
}
