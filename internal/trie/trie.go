// Package trie implements the discrimination tries at the heart of the
// paper's advice construction (Section 3): BuildTrie (Algorithm 4),
// LocalLabel (Algorithm 2) and RetrieveLabel (Algorithm 3).
//
// A trie is a rooted binary tree whose leaves correspond to objects
// (augmented truncated views) and whose internal nodes carry yes/no
// queries (a, b) about these objects. Descending left means "no"/"left
// condition holds"; the object at a leaf is identified by the unique
// sequence of answers on its branch. Tries over depth-1 views query the
// actual binary representation bin(B^1) — query (0, t) asks "is the
// representation shorter than t bits?" and (1, j) asks "is the j-th bit
// 0?". Tries over deeper views query previously assigned temporary
// labels — query (i, y) at depth l asks "is the label of the depth-(l-1)
// view behind port i different from y?".
//
// A trie is stored flat, as one preorder array (see Trie), and is built
// either over views (SharedLabeler.BuildTrie, the reference form) or
// over the class quotient of one depth (BuildDepth1 and Rows.Build, the
// oracle's form, which reads no view at all).
package trie

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bits"
)

// Trie is a discrimination trie stored as one preorder array of nodes.
// An internal node carries its query (A, B) and the index of its right
// child; its left child is the next node, and a leaf has right == 0. A
// trie with L leaves has exactly 2L−1 nodes, so the left subtree of
// internal node i has (right − i)/2 leaves and LocalLabel is an index
// walk over contiguous memory. Preorder is also the order of the token
// stream (Tokens, FromTokens), so the codec reads and writes the array
// in one pass. The nil Trie is no trie: BuildTrie takes a nil E1 to
// mean the depth-1 bootstrap.
type Trie []node

type node struct {
	a, b  int32
	right int32 // index of the right child; 0 for a leaf
}

// IsLeaf reports whether t is a single leaf.
func (t Trie) IsLeaf() bool { return len(t) == 1 }

// Leaves returns the number of leaves of t.
func (t Trie) Leaves() int { return (len(t) + 1) / 2 }

// Size returns the number of nodes of t (2·Leaves−1).
func (t Trie) Size() int { return len(t) }

// LocalLabel is Algorithm 2 of the paper on a trie over views of depth
// two or more: x holds the temporary labels of the children of the
// view's root, port by port, and query (i, y) goes left when x[i] != y.
// It returns the 1-based rank of the leaf reached.
func (t Trie) LocalLabel(x []int32) int {
	sum, i := 1, 0
	for t[i].right != 0 {
		nd := t[i]
		if nd.a < 0 || int(nd.a) >= len(x) {
			panic(fmt.Sprintf("trie: query port %d out of range for %d children", nd.a, len(x)))
		}
		if x[nd.a] != nd.b {
			i++
		} else {
			sum += (int(nd.right) - i) / 2
			i = int(nd.right)
		}
	}
	return sum
}

// LocalLabel1 is Algorithm 2 of the paper on the depth-1 trie E1, for
// the view whose encoding bin(B^1) is enc: query (0, t) goes left when
// enc is shorter than t bits, and (1, j) when its j-th bit is 0.
func (t Trie) LocalLabel1(enc bits.String) int {
	sum, i := 1, 0
	for t[i].right != 0 {
		nd := t[i]
		var left bool
		switch nd.a {
		case 0:
			left = enc.Len() < int(nd.b)
		case 1:
			left = !enc.Bit1(int(nd.b))
		default:
			panic(fmt.Sprintf("trie: invalid depth-1 query kind %d", nd.a))
		}
		if left {
			i++
		} else {
			sum += (int(nd.right) - i) / 2
			i = int(nd.right)
		}
	}
	return sum
}

// Couple is one entry (j, T_j) of a per-depth list L(i): the trie T_j
// discriminates between the depth-i views whose depth-(i-1) truncation
// received temporary label j.
type Couple struct {
	J int
	T Trie
}

// LevelList is one entry (i, L(i)) of the nested list E2. The unexported
// index, when built (NewLevelList, BuildIndex), turns the label-sum loop
// of RetrieveLabel from a linear scan over {1..label} into a binary
// search; it is derived data only and never serialized.
type LevelList struct {
	Depth   int
	Couples []Couple
	idx     *levelIndex
}

// levelIndex is the precomputed form of a couple list: the couples that
// the scan of RetrieveLabel can ever select (first occurrence of each J,
// ascending), with prefix sums of (Leaves − 1). It is immutable after
// construction, so sharing it across concurrently labeling nodes is safe.
type levelIndex struct {
	cs   []Couple // first couple of each J, ascending by J
	cum  []int    // cum[i] = Σ_{k<i} (cs[k].T.Leaves() − 1)
	pos1 int      // index of the first couple with J >= 1
}

func newLevelIndex(cs []Couple) *levelIndex {
	// The oracle and well-formed advice list each J once, ascending, and
	// then the couples index themselves. Otherwise keep the first couple
	// of each J — findCouple returns the first match, so later
	// duplicates are unreachable in the reference scan.
	ascending := true
	for i := 1; i < len(cs); i++ {
		if cs[i-1].J >= cs[i].J {
			ascending = false
			break
		}
	}
	if !ascending {
		cs = slices.Clone(cs)
		slices.SortStableFunc(cs, func(a, b Couple) int { return cmp.Compare(a.J, b.J) })
		cs = slices.CompactFunc(cs, func(a, b Couple) bool { return a.J == b.J })
	}
	ix := &levelIndex{cs: cs, cum: make([]int, len(cs)+1)}
	for i, c := range cs {
		ix.cum[i+1] = ix.cum[i] + c.T.Leaves() - 1
	}
	// Couples with J < 1 never contribute: the reference scan starts at 1.
	ix.pos1 = ix.search(1)
	return ix
}

// search returns the index of the first couple with J >= j.
func (ix *levelIndex) search(j int) int {
	return sort.Search(len(ix.cs), func(i int) bool { return ix.cs[i].J >= j })
}

// sumBelow returns Σ over couples with 1 <= J < label of (Leaves − 1),
// plus the trie at exactly label (nil if none) — everything the label-sum
// of RetrieveLabel needs, in O(log #couples).
func (ix *levelIndex) sumBelow(label int) (int, Trie) {
	lo := ix.search(label)
	sum := ix.cum[lo] - ix.cum[min(ix.pos1, lo)]
	if lo < len(ix.cs) && ix.cs[lo].J == label {
		return sum, ix.cs[lo].T
	}
	return sum, nil
}

// NewLevelList returns the (depth, couples) entry with its label-sum
// index prebuilt; ComputeAdvice and the advice decoder construct levels
// through it so every later RetrieveLabel takes the indexed path.
func NewLevelList(depth int, couples []Couple) LevelList {
	return LevelList{Depth: depth, Couples: couples, idx: newLevelIndex(couples)}
}

// Label is the level step of RetrieveLabel (Algorithm 3): the temporary
// label of a view at this level's depth whose truncation has label j
// and whose children have labels x. A nil level has no couples. With
// the index built, the label-sum over {1..j} is one binary search plus
// one trie descent; the reference scan remains for hand-assembled
// levels (and for out-of-range labels from corrupt advice, whose
// observable behaviour it defines). The oracle's per-depth class sweep
// and the view labeler both go through here.
func (l *LevelList) Label(j int, x []int32) int {
	if l != nil && l.idx != nil && j >= 1 {
		below, at := l.idx.sumBelow(j)
		sum := j - 1 + below
		if at != nil {
			return sum + at.LocalLabel(x)
		}
		return sum + 1
	}
	var cs []Couple
	if l != nil {
		cs = l.Couples
	}
	sum := 0
	for i := 1; i <= j; i++ {
		if t := findCouple(cs, i); t != nil {
			if i < j {
				sum += t.Leaves()
			} else {
				sum += t.LocalLabel(x)
			}
		} else {
			sum++
		}
	}
	return sum
}

// E2 is the nested list built by ComputeAdvice: one LevelList per depth
// from 2 up to the election index. E2 for depth 1 is empty.
type E2 []LevelList

// BuildIndex precomputes the per-level label-sum index used by
// RetrieveLabel. Hand-assembled E2 values work without it (the
// reference scan is kept as the fallback).
func (e E2) BuildIndex() {
	for k := range e {
		e[k].idx = newLevelIndex(e[k].Couples)
	}
}

// levelEntry returns the LevelList for the given depth, or nil. The
// oracle and E2FromTokens build levels in depth order 2..φ, so level
// depth sits at index depth-2; the scan is the fallback for
// hand-assembled E2 values.
func (e E2) levelEntry(depth int) *LevelList {
	if k := depth - 2; k >= 0 && k < len(e) && e[k].Depth == depth {
		return &e[k]
	}
	for k := range e {
		if e[k].Depth == depth {
			return &e[k]
		}
	}
	return nil
}

// level returns the couple list for the given depth, or nil.
func (e E2) level(depth int) []Couple {
	if l := e.levelEntry(depth); l != nil {
		return l.Couples
	}
	return nil
}

// findCouple returns the trie of the first couple with first term j,
// or nil.
func findCouple(cs []Couple, j int) Trie {
	for _, c := range cs {
		if c.J == j {
			return c.T
		}
	}
	return nil
}

// BuildDepth1 is the depth-1 bootstrap of Algorithm 4: the trie over
// the distinct depth-1 views whose encodings bin(B^1) are encs,
// discriminating on the representations themselves. The trie has
// exactly len(encs) leaves and is a pure function of the set; encs is
// not modified.
func BuildDepth1(encs []bits.String) Trie {
	if len(encs) == 0 {
		panic("trie: BuildTrie of empty set")
	}
	sorted := slices.Clone(encs)
	slices.SortFunc(sorted, func(a, b bits.String) int {
		if c := cmp.Compare(a.Len(), b.Len()); c != 0 {
			return c
		}
		return bits.Compare(a, b)
	})
	t := make(Trie, 2*len(encs)-1)
	buildDepth1(t, 0, sorted)
	return t
}

// buildDepth1 writes the trie over encs at t[pos:]. The split is the
// paper's: if the encodings differ in length, (0, t) with t the longest
// length; otherwise (1, j) with j the first bit where the set differs.
// encs is sorted by length, then lexicographically, and so every split
// is a cut of the slice that leaves both sides sorted: the shorter
// encodings precede the longest ones, and among equal-length encodings
// sharing their first j−1 bits, a 0 at bit j precedes a 1 — where j is
// also the first bit at which the first and the last differ.
func buildDepth1(t Trie, pos int, encs []bits.String) {
	if len(encs) == 1 {
		t[pos] = node{}
		return
	}
	first, last := encs[0], encs[len(encs)-1]
	var a, bq, k int
	if maxLen := last.Len(); first.Len() < maxLen {
		a, bq = 0, maxLen
		k = sort.Search(len(encs), func(i int) bool { return encs[i].Len() == maxLen })
	} else {
		d := bits.FirstDiff(first, last)
		if d < 0 {
			panic("trie: BuildTrie called with duplicate depth-1 views")
		}
		a, bq = 1, d+1
		k = sort.Search(len(encs), func(i int) bool { return encs[i].Bit(d) })
	}
	t[pos] = node{a: int32(a), b: int32(bq), right: int32(pos + 2*k)}
	buildDepth1(t, pos+1, encs[:k])
	buildDepth1(t, pos+2*k, encs[k:])
}

// partition stably reorders s so the elements with left true come
// first, preserving relative order on both sides, and returns how many
// satisfy left. scratch must be at least as long as s.
func partition[T any](s, scratch []T, left func(T) bool) int {
	k, r := 0, 0
	for _, v := range s {
		if left(v) {
			s[k] = v
			k++
		} else {
			scratch[r] = v
			r++
		}
	}
	copy(s[k:], scratch[:r])
	return k
}

// Rows is one depth d >= 2 of the class quotient, as Build reads it:
// row c lists, port by port, the depth-(d−1) class of the child behind
// that port of depth-d class c; Rank and Label give the canonical rank
// and the temporary label of every depth-(d−1) class. By the quotient
// argument a depth-d class is one depth-d view and a depth-(d−1) class
// is one child view, so equal child class means equal child view.
type Rows struct {
	Off   []int32 // the row of class c is Child[Off[c]:Off[c+1]]
	Child []int32
	Rank  []int32
	Label []int32
}

// Build is the deeper-level case of Algorithm 4 over depth-d classes: it
// writes into dst, which must hold exactly 2·len(members)−1 nodes, the
// trie discriminating the views of the classes in members. The members
// must share their depth-(d−1) class — the views' common truncation —
// so they agree on degree and remote ports, and canonical order among
// them is decided by their children's ranks. Every split is that of
// the view form: the first port where the two canonically smallest
// members' children differ, asked against the label of the smaller of
// those two children. members is reordered and scratch (at least as
// long) overwritten; Build allocates nothing, so a level's tries can
// share one arena.
func (r *Rows) Build(dst Trie, members, scratch []int32) {
	if len(members) == 0 {
		panic("trie: BuildTrie of empty set")
	}
	if len(dst) != 2*len(members)-1 {
		panic(fmt.Sprintf("trie: %d nodes for a trie over %d classes", len(dst), len(members)))
	}
	// Sort once into canonical order; the stable splits keep both sides
	// sorted, so the two smallest members of every subtree are its
	// first two.
	slices.SortFunc(members, func(a, b int32) int { return r.compare(r.row(a), r.row(b)) })
	r.build(dst, 0, members, scratch)
}

func (r *Rows) row(c int32) []int32 { return r.Child[r.Off[c]:r.Off[c+1]] }

// compare orders two rows of one group by the canonical ranks of their
// children.
func (r *Rows) compare(a, b []int32) int {
	for j := range a {
		if c := cmp.Compare(r.Rank[a[j]], r.Rank[b[j]]); c != 0 {
			return c
		}
	}
	return 0
}

func (r *Rows) build(t Trie, pos int, m, scratch []int32) {
	if len(m) == 1 {
		t[pos] = node{}
		return
	}
	u, v := r.row(m[0]), r.row(m[1])
	idx := -1
	for j := range u {
		if u[j] != v[j] {
			idx = j
			break
		}
	}
	if idx < 0 {
		panic("trie: BuildTrie called with duplicate views")
	}
	// u precedes v and their children agree before idx, so u's child
	// at idx is the smaller one.
	disc := u[idx]
	k := partition(m, scratch, func(c int32) bool { return r.Child[r.Off[c]+int32(idx)] != disc })
	t[pos] = node{a: int32(idx), b: r.Label[disc], right: int32(pos + 2*k)}
	r.build(t, pos+1, m[:k], scratch)
	r.build(t, pos+2*k, m[k:], scratch)
}
