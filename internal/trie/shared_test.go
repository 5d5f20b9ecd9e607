package trie

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/view"
)

// buildAdviceLike constructs a realistic (E1, E2) pair over the distinct
// views of a graph, the same way ComputeAdviceReference does, so labels
// and builders can be compared on the structures they actually serve.
func buildAdviceLike(t *testing.T, tab *view.Table, g *graph.Graph, phi int) (*SharedLabeler, Trie, E2, [][]*view.View) {
	t.Helper()
	lb := NewSharedLabeler(tab)
	levels := view.Levels(tab, g, phi)
	distinctAt := func(i int) []*view.View {
		seen := make(map[*view.View]bool)
		var out []*view.View
		for _, v := range levels[i] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		tab.Sort(out)
		return out
	}
	e1 := lb.BuildTrie(distinctAt(1), nil, nil)
	var e2 E2
	for i := 2; i <= phi; i++ {
		byTrunc := make(map[*view.View][]*view.View)
		for _, b := range distinctAt(i) {
			byTrunc[tab.Truncate(b)] = append(byTrunc[tab.Truncate(b)], b)
		}
		var couples []Couple
		for _, bPrime := range distinctAt(i - 1) {
			if x := byTrunc[bPrime]; len(x) > 1 {
				couples = append(couples, Couple{J: lb.RetrieveLabel(bPrime, e1, e2), T: lb.BuildTrie(x, e1, e2)})
			}
		}
		e2 = append(e2, NewLevelList(i, couples))
	}
	return lb, e1, e2, levels
}

// TestLevelIndexMatchesReferenceScan pins the binary-search label-sum
// path against the reference scan over {1..label}: the same E2 with and
// without its index must label every view identically.
func TestLevelIndexMatchesReferenceScan(t *testing.T) {
	g := graph.RandomConnected(30, 25, 7)
	tab := view.NewTable()
	_, e1, e2, levels := buildAdviceLike(t, tab, g, 4)

	// Strip the indexes to force the reference path.
	plain := make(E2, len(e2))
	for i, l := range e2 {
		plain[i] = LevelList{Depth: l.Depth, Couples: l.Couples}
	}
	fast, slow := NewSharedLabeler(tab), NewSharedLabeler(tab)
	for depth := 1; depth < len(levels); depth++ {
		for v, b := range levels[depth] {
			if got, want := fast.RetrieveLabel(b, e1, e2), slow.RetrieveLabel(b, e1, plain); got != want {
				t.Fatalf("depth %d node %d: indexed label %d != reference %d", depth, v, got, want)
			}
		}
	}
}

// TestBuildIndexOnHandAssembledE2 covers the exported escape hatch:
// BuildIndex on an E2 assembled without NewLevelList (including
// unsorted and duplicate Js, which corrupt advice can produce) must
// leave labels identical to the reference scan.
func TestBuildIndexOnHandAssembledE2(t *testing.T) {
	g := graph.Lollipop(5, 4)
	tab := view.NewTable()
	_, e1, e2, levels := buildAdviceLike(t, tab, g, 3)
	// Rebuild by hand with reversed couples plus a duplicate-J decoy,
	// which findCouple's first-match rule makes unreachable.
	hand := make(E2, len(e2))
	for i, l := range e2 {
		cs := make([]Couple, 0, len(l.Couples)+1)
		for j := len(l.Couples) - 1; j >= 0; j-- {
			cs = append(cs, l.Couples[j])
		}
		if len(cs) > 0 {
			cs = append(cs, Couple{J: cs[0].J, T: NewLeaf()})
		}
		hand[i] = LevelList{Depth: l.Depth, Couples: cs}
	}
	ref := make(E2, len(hand))
	copy(ref, hand)
	hand.BuildIndex()
	fast, slow := NewSharedLabeler(tab), NewSharedLabeler(tab)
	for depth := 1; depth < len(levels); depth++ {
		for _, b := range levels[depth] {
			if got, want := fast.RetrieveLabel(b, e1, hand), slow.RetrieveLabel(b, e1, ref); got != want {
				t.Fatalf("depth %d: indexed label %d != reference %d", depth, got, want)
			}
		}
	}
}

// TestSharedLabelerConcurrentMatchesSequential pins labels queried from
// many goroutines at once on one SharedLabeler to those of a labeler
// queried sequentially (run with -race in CI).
func TestSharedLabelerConcurrentMatchesSequential(t *testing.T) {
	g := graph.RandomConnected(30, 25, 3)
	tab := view.NewTable()
	_, e1, e2, levels := buildAdviceLike(t, tab, g, 4)
	seq := NewSharedLabeler(tab)
	sl := NewSharedLabeler(tab)
	want := make([][]int, len(levels))
	for depth := 1; depth < len(levels); depth++ {
		want[depth] = make([]int, len(levels[depth]))
		for v, b := range levels[depth] {
			want[depth][v] = seq.RetrieveLabel(b, e1, e2)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for depth := 1; depth < len(levels); depth++ {
				for v, b := range levels[depth] {
					if got := sl.RetrieveLabel(b, e1, e2); got != want[depth][v] {
						select {
						case errs <- "concurrent labels disagree with sequential ones":
						default:
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRowsBuildMatchesBuildTrie pins the class-row builder to the view
// builder: numbering each depth's distinct views as classes, Rows.Build
// over a group of classes sharing a truncation writes exactly the trie
// BuildTrie returns for the group's views.
func TestRowsBuildMatchesBuildTrie(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.RandomConnected(60, 20, 2), // φ = 3
		graph.Lollipop(3, 10),            // φ = 4
		graph.Lollipop(3, 14),
	} {
		tab := view.NewTable()
		phi, _ := view.ElectionIndex(tab, g)
		lb, e1, e2, levels := buildAdviceLike(t, tab, g, phi)
		classes := func(d int) ([]*view.View, map[*view.View]int32) {
			var vs []*view.View
			id := map[*view.View]int32{}
			for _, v := range levels[d] {
				if _, ok := id[v]; !ok {
					id[v] = int32(len(vs))
					vs = append(vs, v)
				}
			}
			return vs, id
		}
		groups := 0
		for d := 2; d <= phi; d++ {
			prev, prevID := classes(d - 1)
			cur, _ := classes(d)
			r := Rows{Off: []int32{0}, Rank: make([]int32, len(prev)), Label: make([]int32, len(prev))}
			for c, rk := range tab.Ranks(prev, nil) {
				r.Rank[c] = int32(rk & (1<<32 - 1))
				r.Label[c] = int32(lb.RetrieveLabel(prev[c], e1, e2))
			}
			byTrunc := map[*view.View][]int32{}
			for c, v := range cur {
				for _, e := range v.Edges {
					r.Child = append(r.Child, prevID[e.Child])
				}
				r.Off = append(r.Off, int32(len(r.Child)))
				byTrunc[tab.Truncate(v)] = append(byTrunc[tab.Truncate(v)], int32(c))
			}
			for _, tr := range prev {
				members := byTrunc[tr]
				if len(members) < 2 {
					continue
				}
				groups++
				vs := make([]*view.View, len(members))
				for i, c := range members {
					vs[i] = cur[c]
				}
				want := lb.BuildTrie(vs, e1, e2)
				got := make(Trie, 2*len(members)-1)
				r.Build(got, members, make([]int32, len(members)))
				if !slices.Equal(got, want) {
					t.Fatalf("depth %d: Rows.Build %v, BuildTrie %v", d, got, want)
				}
			}
		}
		if groups == 0 {
			t.Fatal("no group of two or more classes to compare")
		}
	}
}
