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
package trie

import (
	"fmt"
	"sort"

	"repro/internal/bits"
	"repro/internal/view"
)

// Trie is a node of a discrimination trie. Internal nodes have both
// children and a query (A, B); leaves have neither.
type Trie struct {
	A, B        int
	Left, Right *Trie
	leaves      int
}

// NewLeaf returns a single-leaf trie (the paper's "single node labeled (0)").
func NewLeaf() *Trie { return &Trie{leaves: 1} }

// NewInternal returns an internal trie node with the given query and children.
func NewInternal(a, b int, left, right *Trie) *Trie {
	if left == nil || right == nil {
		panic("trie: internal node requires two children")
	}
	return &Trie{A: a, B: b, Left: left, Right: right, leaves: left.leaves + right.leaves}
}

// IsLeaf reports whether t is a leaf.
func (t *Trie) IsLeaf() bool { return t.Left == nil }

// Leaves returns the number of leaves of t.
func (t *Trie) Leaves() int { return t.leaves }

// Size returns the number of nodes of t (2·Leaves−1 for the tries built here).
func (t *Trie) Size() int {
	if t.IsLeaf() {
		return 1
	}
	return 1 + t.Left.Size() + t.Right.Size()
}

// Couple is one entry (j, T_j) of a per-depth list L(i): the trie T_j
// discriminates between the depth-i views whose depth-(i-1) truncation
// received temporary label j.
type Couple struct {
	J int
	T *Trie
}

// LevelList is one entry (i, L(i)) of the nested list E2. The unexported
// index, when built (BuildIndex), turns the label-sum loop of
// RetrieveLabel from a linear scan over {1..label} into two binary
// searches; it is derived data only and never serialized.
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
	js  []int   // distinct Js, ascending
	ts  []*Trie // trie of each J
	cum []int   // cum[i] = Σ_{k<i} (ts[k].Leaves() − 1)
}

func newLevelIndex(cs []Couple) *levelIndex {
	// Keep the first couple of each J — findCouple returns the first
	// match, so later duplicates are unreachable in the reference scan.
	firstByJ := make(map[int]*Trie, len(cs))
	ix := &levelIndex{}
	for _, c := range cs {
		if _, dup := firstByJ[c.J]; !dup {
			firstByJ[c.J] = c.T
			ix.js = append(ix.js, c.J)
		}
	}
	sort.Ints(ix.js)
	ix.ts = make([]*Trie, len(ix.js))
	ix.cum = make([]int, len(ix.js)+1)
	for i, j := range ix.js {
		ix.ts[i] = firstByJ[j]
		ix.cum[i+1] = ix.cum[i] + ix.ts[i].Leaves() - 1
	}
	return ix
}

// sumBelow returns Σ over couples with 1 <= J < label of (Leaves − 1),
// plus the trie at exactly label (nil if none) — everything the label-sum
// of RetrieveLabel needs, in O(log #couples).
func (ix *levelIndex) sumBelow(label int) (int, *Trie) {
	lo := sort.SearchInts(ix.js, label)
	sum := ix.cum[lo]
	// Couples with J < 1 never contribute: the reference scan starts at 1.
	if neg := sort.SearchInts(ix.js, 1); neg > 0 {
		sum -= ix.cum[neg]
	}
	var at *Trie
	if lo < len(ix.js) && ix.js[lo] == label {
		at = ix.ts[lo]
	}
	return sum, at
}

// NewLevelList returns the (depth, couples) entry with its label-sum
// index prebuilt; ComputeAdvice and the advice decoder construct levels
// through it so every later RetrieveLabel takes the indexed path.
func NewLevelList(depth int, couples []Couple) LevelList {
	return LevelList{Depth: depth, Couples: couples, idx: newLevelIndex(couples)}
}

// E2 is the nested list built by ComputeAdvice: one LevelList per depth
// from 2 up to the election index. E2 for depth 1 is empty.
type E2 []LevelList

// BuildIndex precomputes the per-level label-sum index used by
// RetrieveLabel. ComputeAdvice and the advice decoder call it once per
// E2 before any labeling; hand-assembled E2 values work without it (the
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

// find returns the trie of the couple with first term j, or nil.
func findCouple(cs []Couple, j int) *Trie {
	for _, c := range cs {
		if c.J == j {
			return c.T
		}
	}
	return nil
}

// Labeler evaluates LocalLabel and RetrieveLabel against a fixed view
// table, caching depth-1 encodings and retrieved labels. The RetrieveLabel
// memoization across growing E2 prefixes is sound because, per Claim 3.7
// of the paper, the label of a depth-k view is identical under every
// E2(i) with i >= k; callers must only query views whose depth is covered
// by the E2 they pass (ComputeAdvice does).
type Labeler struct {
	Tab  *view.Table
	enc1 map[*view.View]bits.String
	memo map[*view.View]int
}

// NewLabeler returns a Labeler over the given table.
func NewLabeler(tab *view.Table) *Labeler {
	return &Labeler{
		Tab:  tab,
		enc1: make(map[*view.View]bits.String),
		memo: make(map[*view.View]int),
	}
}

// Encode1 returns the cached bin(B^1) encoding of a depth-1 view.
func (lb *Labeler) Encode1(v *view.View) bits.String {
	if s, ok := lb.enc1[v]; ok {
		return s
	}
	s := view.EncodeDepth1(v)
	lb.enc1[v] = s
	return s
}

// evaluator is the recursion surface shared by Labeler and
// SharedLabeler: the free functions localLabel and retrieveLabel call
// back through it so that child labels and depth-1 encodings hit the
// concrete type's memo (a plain map or a lock-striped one).
type evaluator interface {
	RetrieveLabel(b *view.View, e1 *Trie, e2 E2) int
	Encode1(v *view.View) bits.String
}

// localLabel is Algorithm 2 of the paper (see Labeler.LocalLabel). The
// descent is iterative and, for depth-1 queries, looks the view's
// encoding up once for the whole branch — the recursive form re-fetched
// it from the encoding cache at every internal node, which made the
// cache lookup the hottest instruction of the oracle's label sweep.
func localLabel(lb evaluator, b *view.View, x []int, t *Trie) int {
	var enc bits.String
	if len(x) == 0 && !t.IsLeaf() {
		enc = lb.Encode1(b)
	}
	sum := 1
	for !t.IsLeaf() {
		left := false
		if len(x) == 0 {
			switch t.A {
			case 0:
				if enc.Len() < t.B {
					left = true
				}
			case 1:
				if !enc.Bit1(t.B) {
					left = true
				}
			default:
				panic(fmt.Sprintf("trie: invalid depth-1 query kind %d", t.A))
			}
		} else {
			if t.A < 0 || t.A >= len(x) {
				panic(fmt.Sprintf("trie: query port %d out of range for %d children", t.A, len(x)))
			}
			if x[t.A] != t.B {
				left = true
			}
		}
		if left {
			t = t.Left
		} else {
			sum += t.Left.Leaves()
			t = t.Right
		}
	}
	return sum
}

// retrieveLabel is Algorithm 3 of the paper (see Labeler.RetrieveLabel),
// minus the memo handled by the caller. When the level carries a
// prebuilt index, the label-sum over {1..label} collapses to two binary
// searches plus one trie descent; the reference scan remains for
// hand-assembled E2 values (and for out-of-range labels from corrupt
// advice, whose observable behaviour it defines).
func retrieveLabel(lb evaluator, tab *view.Table, b *view.View, e1 *Trie, e2 E2) int {
	if b.Depth == 1 {
		return localLabel(lb, b, nil, e1)
	}
	if b.Depth < 1 {
		panic("trie: RetrieveLabel of depth-0 view")
	}
	// Child labels; a stack buffer covers all but the highest-degree
	// roots, so the label sweep over n nodes does not allocate n slices.
	var xbuf [16]int
	x := xbuf[:0]
	if b.Deg > len(xbuf) {
		x = make([]int, 0, b.Deg)
	}
	for _, e := range b.Edges {
		x = append(x, lb.RetrieveLabel(e.Child, e1, e2))
	}
	label := lb.RetrieveLabel(tab.Truncate(b), e1, e2)
	le := e2.levelEntry(b.Depth)
	if le != nil && le.idx != nil && label >= 1 {
		below, at := le.idx.sumBelow(label)
		sum := label - 1 + below
		if at != nil {
			sum += localLabel(lb, b, x, at)
		} else {
			sum++
		}
		return sum
	}
	var cs []Couple
	if le != nil {
		cs = le.Couples
	}
	sum := 0
	for i := 1; i <= label; i++ {
		if t := findCouple(cs, i); t != nil {
			if i < label {
				sum += t.Leaves()
			} else {
				sum += localLabel(lb, b, x, t)
			}
		} else {
			sum++
		}
	}
	return sum
}

// LocalLabel is Algorithm 2 of the paper. B is an augmented truncated
// view, x the list of temporary labels previously assigned to the
// children of B's root (nil at depth 1), and t a trie discriminating the
// candidate set containing B. It returns a 1-based leaf rank.
func (lb *Labeler) LocalLabel(b *view.View, x []int, t *Trie) int {
	return localLabel(lb, b, x, t)
}

// RetrieveLabel is Algorithm 3 of the paper: it assigns the temporary
// integer label of the view b using the depth-1 trie e1 and the nested
// list e2. Labels of distinct views at the same depth are distinct, and
// lie in {1, ..., #views at that depth} (Claims 3.4 and 3.7).
func (lb *Labeler) RetrieveLabel(b *view.View, e1 *Trie, e2 E2) int {
	if v, ok := lb.memo[b]; ok {
		return v
	}
	out := retrieveLabel(lb, lb.Tab, b, e1, e2)
	lb.memo[b] = out
	return out
}

// BuildTrie is Algorithm 4 of the paper. s is a non-empty set of distinct
// augmented truncated views at the same positive depth; e1 is nil exactly
// in the depth-1 bootstrap case (then queries inspect binary
// representations); otherwise queries use the temporary labels induced by
// e1 and e2. The returned trie has exactly len(s) leaves; s itself is
// not modified. The resulting trie is a pure function of the *set* s —
// every split is decided by canonically distinguished elements — which
// is what lets the class-sharing oracle enumerate candidate sets in
// class order rather than canonical order.
func (lb *Labeler) BuildTrie(s []*view.View, e1 *Trie, e2 E2) *Trie {
	return buildTrie(lb, lb.Tab, s, e1, e2)
}

// buildTrie is the implementation shared by Labeler and SharedLabeler.
// It copies s once, then splits in place with a stable two-way
// partition over one scratch buffer: the recursion allocates no
// per-node maps or side slices (the old form allocated a membership map
// per internal node, which made the oracle GC-bound at 100k nodes). In
// the depth-1 bootstrap it also materializes each view's encoding once
// into a slice carried through the recursion, instead of hitting the
// encoding cache at every length/bit inspection.
func buildTrie(lb evaluator, tab *view.Table, s []*view.View, e1 *Trie, e2 E2) *Trie {
	if len(s) == 0 {
		panic("trie: BuildTrie of empty set")
	}
	if len(s) == 1 {
		return NewLeaf()
	}
	if len(s) == 2 && e1 != nil {
		// The common shape at the refinement's deepest levels: a couple
		// of two views needs no set copies or scratch at all.
		return buildTriePair(lb, tab, s[0], s[1], e1, e2)
	}
	set := make([]*view.View, len(s))
	copy(set, s)
	scratch := make([]*view.View, len(s))
	if e1 == nil {
		encs := make([]bits.String, len(s))
		for i, v := range set {
			encs[i] = lb.Encode1(v)
		}
		encScratch := make([]bits.String, len(s))
		return buildTrie1(set, encs, scratch, encScratch)
	}
	// The views of s share a truncation, hence degree and remote ports:
	// their canonical order is decided by their children alone. Fetch
	// the children's canonical ranks once — ranking depth d-1 instead of
	// depth d matters because the deepest levels of the refinement often
	// split off only a handful of couples, and ranking their own depth
	// would sort every view of the table's top depth to serve them. The
	// two-smallest scan at every internal node of the recursion is then
	// an integer scan.
	deg := set[0].Deg
	flat := make([]*view.View, 0, len(set)*deg)
	for _, v := range set {
		for i := range v.Edges {
			flat = append(flat, v.Edges[i].Child)
		}
	}
	rows := tab.Ranks(flat, make([]uint64, 0, len(flat)))
	ri := make([]int32, len(set))
	for i := range ri {
		ri[i] = int32(i)
	}
	riScratch := make([]int32, len(set))
	return buildTrieDeep(lb, tab, set, rows, deg, ri, scratch, riScratch, e1, e2)
}

// buildTriePair is buildTrieDeep for a candidate set of exactly two
// views: the split index is their first differing child, and the single
// child comparison runs shallowly (degree, ports, then grandchild
// ranks) so a two-view couple at the refinement's top depth never
// triggers a rank pass over that whole depth.
func buildTriePair(lb evaluator, tab *view.Table, u, v *view.View, e1 *Trie, e2 E2) *Trie {
	idx := -1
	for i := range u.Edges {
		if u.Edges[i].Child != v.Edges[i].Child {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("trie: BuildTrie called with duplicate views")
	}
	bdisc := u.Edges[idx].Child
	if tab.CompareShallow(v.Edges[idx].Child, bdisc) < 0 {
		bdisc = v.Edges[idx].Child
	}
	return NewInternal(idx, lb.RetrieveLabel(bdisc, e1, e2), NewLeaf(), NewLeaf())
}

// buildTrie1 is the depth-1 bootstrap of Algorithm 4: discriminate on
// the binary representations themselves. encs[i] is the encoding of
// s[i] and is permuted alongside it.
func buildTrie1(s []*view.View, encs []bits.String, scratch []*view.View, encScratch []bits.String) *Trie {
	if len(s) == 1 {
		return NewLeaf()
	}
	maxLen := 0
	for _, e := range encs {
		if e.Len() > maxLen {
			maxLen = e.Len()
		}
	}
	allMax := true
	for _, e := range encs {
		if e.Len() < maxLen {
			allMax = false
			break
		}
	}
	var a, bq, k int
	if !allMax {
		a, bq = 0, maxLen
		k = partition1(s, encs, scratch, encScratch, func(i int) bool {
			return encs[i].Len() < maxLen
		})
	} else {
		// All encodings have equal length: split on the smallest bit
		// position where some view disagrees with the first — the
		// byte-level scan form of "the first j where the set differs".
		j := -1
		for _, e := range encs[1:] {
			if d := bits.FirstDiff(encs[0], e); d >= 0 && (j < 0 || d+1 < j) {
				j = d + 1
			}
		}
		if j < 0 {
			panic("trie: BuildTrie called with duplicate depth-1 views")
		}
		a, bq = 1, j
		k = partition1(s, encs, scratch, encScratch, func(i int) bool {
			return !encs[i].Bit1(j)
		})
	}
	if k == 0 || k == len(s) {
		panic("trie: BuildTrie split produced an empty side")
	}
	return NewInternal(a, bq,
		buildTrie1(s[:k], encs[:k], scratch, encScratch),
		buildTrie1(s[k:], encs[k:], scratch, encScratch))
}

// buildTrieDeep is the deeper-level case of Algorithm 4: all views of s
// share the same truncation; split on the discriminatory index of the
// two canonically smallest views. Because the truncation fixes degree
// and remote ports, "canonically smallest" is decided by the children:
// rows holds the packed canonical ranks of every view's children (one
// generation for the whole set), row ri[i] — deg consecutive entries —
// belonging to s[i]; ri is permuted alongside s.
func buildTrieDeep(lb evaluator, tab *view.Table, s []*view.View, rows []uint64, deg int, ri []int32, scratch []*view.View, riScratch []int32, e1 *Trie, e2 E2) *Trie {
	if len(s) == 1 {
		return NewLeaf()
	}
	row := func(i int) []uint64 {
		o := int(ri[i]) * deg
		return rows[o : o+deg]
	}
	rowLess := func(a, b []uint64) bool {
		for j := 0; j < deg; j++ {
			if a[j] != b[j] {
				return a[j] < b[j]
			}
		}
		return false
	}
	// Two smallest by child-rank rows: one lexicographic scan.
	i1, i2 := 0, 1
	if rowLess(row(1), row(0)) {
		i1, i2 = 1, 0
	}
	for i := 2; i < len(s); i++ {
		switch {
		case rowLess(row(i), row(i1)):
			i1, i2 = i, i1
		case rowLess(row(i), row(i2)):
			i2 = i
		}
	}
	u, v := s[i1], s[i2]
	idx := -1
	for i := range u.Edges {
		if u.Edges[i].Child != v.Edges[i].Child {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("trie: BuildTrie called with duplicate views")
	}
	bdisc := u.Edges[idx].Child
	if row(i2)[idx] < row(i1)[idx] {
		bdisc = v.Edges[idx].Child
	}
	a, bq := idx, lb.RetrieveLabel(bdisc, e1, e2)
	k, r := 0, 0
	for i, w := range s {
		if w.Edges[idx].Child != bdisc {
			s[k], ri[k] = w, ri[i]
			k++
		} else {
			scratch[r], riScratch[r] = w, ri[i]
			r++
		}
	}
	copy(s[k:], scratch[:r])
	copy(ri[k:], riScratch[:r])
	if k == 0 || r == 0 {
		panic("trie: BuildTrie split produced an empty side")
	}
	return NewInternal(a, bq,
		buildTrieDeep(lb, tab, s[:k], rows, deg, ri[:k], scratch, riScratch, e1, e2),
		buildTrieDeep(lb, tab, s[k:], rows, deg, ri[k:], scratch, riScratch, e1, e2))
}

// partition1 stably reorders s (and the parallel encs) so the elements
// with pred true come first, preserving relative order on both sides,
// and returns how many satisfy pred. pred is indexed against the
// pre-partition positions, so it must read encs before position i is
// overwritten — the compaction writes at k <= i, which guarantees that.
func partition1(s []*view.View, encs []bits.String, scratch []*view.View, encScratch []bits.String, pred func(i int) bool) int {
	k, r := 0, 0
	for i, v := range s {
		if pred(i) {
			s[k], encs[k] = v, encs[i]
			k++
		} else {
			scratch[r], encScratch[r] = v, encs[i]
			r++
		}
	}
	copy(s[k:], scratch[:r])
	copy(encs[k:], encScratch[:r])
	return k
}
