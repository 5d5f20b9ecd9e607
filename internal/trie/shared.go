package trie

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bits"
	"repro/internal/view"
)

// SharedLabeler evaluates the paper's labeling algorithms on interned
// views. It is safe for concurrent use, so one instance backs every node
// of a simulation run. Labels are pure functions of (view, E1, E2);
// sharing the memo across deciders changes no output, it only makes
// each distinct view's label be computed once per run instead of once
// per node — on large graphs the difference between O(Σ_l k_l) and
// O(n · ball) trie work. The memo across growing E2 prefixes is sound
// because, per Claim 3.7 of the paper, the label of a depth-k view is
// identical under every E2(i) with i >= k; an instance must only ever
// be queried with one advice's (E1, E2), or with growing prefixes of it
// that cover the depth of every queried view (ComputeAdviceReference
// queries it depth by depth).
//
// The label memo is an atomic array indexed by the view's interning
// identity (identities are dense, so the array is as big as the table):
// a hit is one bounds check and one atomic load. Label 0 is "unset" —
// RetrieveLabel always returns >= 1. The array grows by copy under a
// mutex; a store racing a grow can land in the discarded array, which
// only means the deterministic label is recomputed on the next miss.
// Depth-1 encodings are not cached: the label memo already encodes each
// depth-1 view once.
type SharedLabeler struct {
	Tab    *view.Table
	labels atomic.Pointer[[]atomic.Int32]
	growMu sync.Mutex
}

// NewSharedLabeler returns a SharedLabeler over the given table.
func NewSharedLabeler(tab *view.Table) *SharedLabeler {
	return &SharedLabeler{Tab: tab}
}

// LocalLabel is Algorithm 2 of the paper. B is an augmented truncated
// view, x the list of temporary labels previously assigned to the
// children of B's root (nil at depth 1, where the queries read bin(B)
// instead), and t a trie discriminating the candidate set containing B.
// It returns a 1-based leaf rank.
func (sl *SharedLabeler) LocalLabel(b *view.View, x []int32, t Trie) int {
	if len(x) > 0 {
		return t.LocalLabel(x)
	}
	if t.IsLeaf() {
		return 1
	}
	return t.LocalLabel1(view.EncodeDepth1(b))
}

// RetrieveLabel is Algorithm 3 of the paper: it assigns the temporary
// integer label of the view b using the depth-1 trie e1 and the nested
// list e2. Labels of distinct views at the same depth are distinct, and
// lie in {1, ..., #views at that depth} (Claims 3.4 and 3.7).
func (sl *SharedLabeler) RetrieveLabel(b *view.View, e1 Trie, e2 E2) int {
	id := b.ID()
	if arr := sl.labels.Load(); arr != nil && id < uint64(len(*arr)) {
		if l := (*arr)[id].Load(); l != 0 {
			return int(l)
		}
	}
	out := sl.retrieveLabel(b, e1, e2)
	sl.storeLabel(id, int32(out))
	return out
}

// retrieveLabel is RetrieveLabel minus the memo: the children's and the
// truncation's labels (memoized), then the level step.
func (sl *SharedLabeler) retrieveLabel(b *view.View, e1 Trie, e2 E2) int {
	if b.Depth == 1 {
		return sl.LocalLabel(b, nil, e1)
	}
	if b.Depth < 1 {
		panic("trie: RetrieveLabel of depth-0 view")
	}
	// Child labels; a stack buffer covers all but the highest-degree
	// roots, so the label sweep over n nodes does not allocate n slices.
	var xbuf [16]int32
	x := xbuf[:0]
	for _, e := range b.Edges {
		x = append(x, int32(sl.RetrieveLabel(e.Child, e1, e2)))
	}
	label := sl.RetrieveLabel(sl.Tab.Truncate(b), e1, e2)
	return e2.levelEntry(b.Depth).Label(label, x)
}

// storeLabel records a computed label, growing the array to cover the
// table's current size when the identity is out of range.
func (sl *SharedLabeler) storeLabel(id uint64, label int32) {
	arr := sl.labels.Load()
	if arr == nil || id >= uint64(len(*arr)) {
		sl.growMu.Lock()
		arr = sl.labels.Load()
		if arr == nil || id >= uint64(len(*arr)) {
			newLen := sl.Tab.Size()
			if arr != nil && newLen < 2*len(*arr) {
				newLen = 2 * len(*arr)
			}
			if newLen < int(id)+1 {
				newLen = int(id) + 1
			}
			if newLen < 1024 {
				newLen = 1024
			}
			na := make([]atomic.Int32, newLen)
			if arr != nil {
				for i := range *arr {
					na[i].Store((*arr)[i].Load())
				}
			}
			sl.labels.Store(&na)
			arr = &na
		}
		sl.growMu.Unlock()
	}
	(*arr)[id].Store(label)
}

// BuildTrie is Algorithm 4 of the paper over views. s is a non-empty
// set of distinct augmented truncated views at the same positive depth;
// e1 is nil exactly in the depth-1 bootstrap case (then queries inspect
// binary representations, BuildDepth1); otherwise queries use the
// temporary labels induced by e1 and e2. The returned trie has exactly
// len(s) leaves; s itself is not modified. The trie is a pure function
// of the *set* s — every split is decided by canonically distinguished
// elements, under Table.Compare — which is why the class-quotient
// oracle, which builds the same tries over class rows (Rows.Build),
// produces the same advice as ComputeAdviceReference, the caller of
// this form.
func (sl *SharedLabeler) BuildTrie(s []*view.View, e1 Trie, e2 E2) Trie {
	if len(s) == 0 {
		panic("trie: BuildTrie of empty set")
	}
	if e1 == nil {
		encs := make([]bits.String, len(s))
		for i, v := range s {
			encs[i] = view.EncodeDepth1(v)
		}
		return BuildDepth1(encs)
	}
	t := make(Trie, 2*len(s)-1)
	sl.buildDeep(t, 0, slices.Clone(s), make([]*view.View, len(s)), e1, e2)
	return t
}

// buildDeep writes the trie over s at t[pos:]. All views of s share the
// same truncation; split on the discriminatory index of the two
// canonically smallest views.
func (sl *SharedLabeler) buildDeep(t Trie, pos int, s, scratch []*view.View, e1 Trie, e2 E2) {
	if len(s) == 1 {
		t[pos] = node{}
		return
	}
	tab := sl.Tab
	i1, i2 := 0, 1
	if tab.Compare(s[1], s[0]) < 0 {
		i1, i2 = 1, 0
	}
	for i := 2; i < len(s); i++ {
		switch {
		case tab.Compare(s[i], s[i1]) < 0:
			i1, i2 = i, i1
		case tab.Compare(s[i], s[i2]) < 0:
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
	disc := u.Edges[idx].Child
	if tab.Compare(v.Edges[idx].Child, disc) < 0 {
		disc = v.Edges[idx].Child
	}
	b := sl.RetrieveLabel(disc, e1, e2)
	k := partition(s, scratch, func(w *view.View) bool { return w.Edges[idx].Child != disc })
	if k == 0 || k == len(s) {
		panic("trie: BuildTrie split produced an empty side")
	}
	t[pos] = node{a: int32(idx), b: int32(b), right: int32(pos + 2*k)}
	sl.buildDeep(t, pos+1, s[:k], scratch, e1, e2)
	sl.buildDeep(t, pos+2*k, s[k:], scratch, e1, e2)
}
