package trie

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/view"
)

// NewLeaf returns a single-leaf trie (the paper's "single node labeled
// (0)"); with NewInternal it assembles tries by hand for tests.
func NewLeaf() Trie { return Trie{{}} }

// NewInternal returns the trie with root query (a, b) over the given
// subtrees, in preorder.
func NewInternal(a, b int, left, right Trie) Trie {
	if len(left) == 0 || len(right) == 0 {
		panic("trie: internal node requires two children")
	}
	t := make(Trie, 0, 1+len(left)+len(right))
	t = append(t, node{a: int32(a), b: int32(b), right: int32(1 + len(left))})
	for i, sub := range []Trie{left, right} {
		shift := int32(1 + i*len(left))
		for _, nd := range sub {
			if nd.right != 0 {
				nd.right += shift
			}
			t = append(t, nd)
		}
	}
	return t
}

func depth1Views(t *testing.T, g *graph.Graph) (*view.Table, []*view.View, []*view.View) {
	t.Helper()
	tab := view.NewTable()
	all := view.Levels(tab, g, 1)[1]
	seen := map[*view.View]bool{}
	var distinct []*view.View
	for _, v := range all {
		if !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	return tab, all, distinct
}

func TestTrieConstructors(t *testing.T) {
	l := NewLeaf()
	if !l.IsLeaf() || l.Leaves() != 1 || l.Size() != 1 {
		t.Error("leaf invariants")
	}
	n := NewInternal(1, 5, NewLeaf(), NewLeaf())
	if n.IsLeaf() || n.Leaves() != 2 || n.Size() != 3 {
		t.Error("internal invariants")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil child")
		}
	}()
	NewInternal(0, 0, nil, NewLeaf())
}

// The flat layout: preorder, the left child next, the right child at
// the stored index, and (right − i)/2 leaves left of node i.
func TestTrieLayout(t *testing.T) {
	tr := NewInternal(0, 1, NewInternal(2, 3, NewLeaf(), NewLeaf()), NewInternal(4, 5, NewLeaf(), NewLeaf()))
	want := Trie{{0, 1, 4}, {2, 3, 3}, {}, {}, {4, 5, 6}, {}, {}}
	if !slices.Equal(tr, want) {
		t.Fatalf("layout %v, want %v", tr, want)
	}
	// x[0] == 1 goes right past two leaves, then x[4] != 5 goes left.
	if got := tr.LocalLabel([]int32{1, 0, 0, 0, 0}); got != 3 {
		t.Errorf("LocalLabel = %d, want 3", got)
	}
	// x[0] != 1 goes left, then x[2] == 3 goes right past one leaf.
	if got := tr.LocalLabel([]int32{0, 0, 3, 0, 0}); got != 2 {
		t.Errorf("LocalLabel = %d, want 2", got)
	}
}

// Claim 3.1: BuildTrie over depth-1 views returns a trie of size 2|S|-1
// with exactly |S| leaves.
func TestBuildTrieDepth1Shape(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(5), graph.Lollipop(4, 3), graph.Grid(3, 3),
		graph.RandomConnected(14, 7, 5),
	} {
		_, _, distinct := depth1Views(t, g)
		lb := NewSharedLabeler(view.NewTable())
		tr := lb.BuildTrie(distinct, nil, nil)
		if tr.Leaves() != len(distinct) {
			t.Errorf("leaves = %d, want %d", tr.Leaves(), len(distinct))
		}
		if tr.Size() != 2*len(distinct)-1 {
			t.Errorf("size = %d, want %d", tr.Size(), 2*len(distinct)-1)
		}
	}
}

// Claim 3.2: LocalLabel over a depth-1 trie returns distinct labels in
// {1..|S|} for distinct views.
func TestLocalLabelDepth1Uniqueness(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomConnected(12, 6, seed)
		tab, _, distinct := depth1Views(t, g)
		lb := NewSharedLabeler(tab)
		tr := lb.BuildTrie(distinct, nil, nil)
		got := map[int]*view.View{}
		for _, v := range distinct {
			l := lb.LocalLabel(v, nil, tr)
			if l < 1 || l > len(distinct) {
				t.Fatalf("label %d out of range [1,%d]", l, len(distinct))
			}
			if prev, dup := got[l]; dup && prev != v {
				t.Fatalf("label %d assigned twice", l)
			}
			got[l] = v
		}
	}
}

func TestBuildTrieSingleton(t *testing.T) {
	g := graph.Path(3)
	tab, _, distinct := depth1Views(t, g)
	lb := NewSharedLabeler(tab)
	tr := lb.BuildTrie(distinct[:1], nil, nil)
	if !tr.IsLeaf() {
		t.Error("singleton set should yield a leaf")
	}
	if lb.LocalLabel(distinct[0], nil, tr) != 1 {
		t.Error("leaf label should be 1")
	}
}

func TestBuildTriePanicsOnDuplicates(t *testing.T) {
	g := graph.Path(4)
	tab, _, distinct := depth1Views(t, g)
	lb := NewSharedLabeler(tab)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	lb.BuildTrie([]*view.View{distinct[0], distinct[0]}, nil, nil)
}

func TestBuildTriePanicsOnEmpty(t *testing.T) {
	lb := NewSharedLabeler(view.NewTable())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	lb.BuildTrie(nil, nil, nil)
}

func TestRetrieveLabelDepth1EqualsLocalLabel(t *testing.T) {
	g := graph.Lollipop(5, 2)
	tab, all, distinct := depth1Views(t, g)
	lb := NewSharedLabeler(tab)
	tr := lb.BuildTrie(distinct, nil, nil)
	for _, v := range all {
		if lb.RetrieveLabel(v, tr, nil) != lb.LocalLabel(v, nil, tr) {
			t.Fatal("RetrieveLabel at depth 1 must equal LocalLabel")
		}
	}
}

func TestRetrieveLabelPanicsAtDepth0(t *testing.T) {
	tab := view.NewTable()
	lb := NewSharedLabeler(tab)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	lb.RetrieveLabel(tab.Leaf(2), NewLeaf(), nil)
}

func TestTrieTokensRoundTrip(t *testing.T) {
	g := graph.RandomConnected(16, 8, 21)
	tab, _, distinct := depth1Views(t, g)
	lb := NewSharedLabeler(tab)
	tr := lb.BuildTrie(distinct, nil, nil)
	tokens := tr.Tokens()
	got, used, err := FromTokens(tokens)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(tokens) {
		t.Fatalf("used %d of %d tokens", used, len(tokens))
	}
	if !slices.Equal(tr, got) {
		t.Error("round trip changed the trie")
	}
}

func TestFromTokensErrors(t *testing.T) {
	cases := [][]int{
		{},           // empty
		{1, 0},       // truncated query
		{1, 0, 0},    // missing children
		{2},          // invalid tag
		{1, 0, 0, 0}, // one child only
		// Query values that do not fit the int32 node.
		{1, 1 << 31, 0, 0, 0},
		{1, 0, 1 << 40, 0, 0},
		{1, 0, -1<<31 - 1, 0, 0},
		{1, 0, 0, 1, 1 << 31, 7, 0, 0, 0}, // in the right subtree
	}
	for _, c := range cases {
		if _, _, err := FromTokens(c); err == nil {
			t.Errorf("FromTokens(%v) should fail", c)
		}
	}
}

func TestE2TokensRoundTrip(t *testing.T) {
	e2 := E2{
		{Depth: 2, Couples: []Couple{{J: 3, T: NewInternal(0, 7, NewLeaf(), NewLeaf())}}},
		{Depth: 3, Couples: nil},
		{Depth: 4, Couples: []Couple{{J: 1, T: NewLeaf()}, {J: 5, T: NewLeaf()}}},
	}
	got, err := E2FromTokens(e2.TokensE2())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Depth != 2 || len(got[2].Couples) != 2 {
		t.Fatalf("round trip structure wrong: %+v", got)
	}
	if got[0].Couples[0].J != 3 || !slices.Equal(got[0].Couples[0].T, e2[0].Couples[0].T) {
		t.Error("couple content wrong")
	}
}

func TestE2FromTokensErrors(t *testing.T) {
	for _, c := range [][]int{{}, {1}, {1, 2}, {1, 2, 1, 5}} {
		if _, err := E2FromTokens(c); err == nil {
			t.Errorf("E2FromTokens(%v) should fail", c)
		}
	}
	// Trailing tokens.
	if _, err := E2FromTokens([]int{0, 9}); err == nil {
		t.Error("trailing tokens should fail")
	}
}

func TestE2LevelLookup(t *testing.T) {
	e2 := E2{{Depth: 2, Couples: []Couple{{J: 1, T: NewLeaf()}}}}
	if e2.level(2) == nil {
		t.Error("level 2 should exist")
	}
	if e2.level(3) != nil {
		t.Error("level 3 should be nil")
	}
	if findCouple(e2.level(2), 1) == nil || findCouple(e2.level(2), 2) != nil {
		t.Error("findCouple wrong")
	}
}
