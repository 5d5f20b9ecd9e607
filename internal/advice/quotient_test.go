package advice

import (
	"slices"
	"testing"

	"repro/internal/classviews"
	"repro/internal/families"
	"repro/internal/graph"
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

// TestClassRanksMatchCompare pins the oracle's own evaluation of the
// canonical order: on every family and at every depth, the quotient's
// class ranks order the classviews class views — the same classes, one
// interned view each — exactly as Table.Compare does.
func TestClassRanksMatchCompare(t *testing.T) {
	for name, g := range quotientFamilies() {
		tab := view.NewTable()
		mat := classviews.New(tab, g)
		q := newQuotient(g)
		for {
			views := mat.Views()
			if len(views) != q.cur.k {
				t.Fatalf("%s depth %d: %d class views, %d quotient classes", name, q.depth, len(views), q.cur.k)
			}
			byCompare := q.identity(q.cur.k)
			slices.SortFunc(byCompare, func(a, b int32) int { return tab.Compare(views[a], views[b]) })
			for i, c := range byCompare {
				if q.cur.rank[c] != int32(i) {
					t.Fatalf("%s depth %d: class %d has rank %d, Table.Compare places it %d", name, q.depth, c, q.cur.rank[c], i)
				}
			}
			if q.cur.k == g.N() || !q.step() {
				break
			}
			mat.Step()
			q.rank()
		}
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
