package advice

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/trie"
	"repro/internal/view"
)

// quotient walks the class quotient of a graph one depth at a time, for
// the oracle. By the Yamashita–Kameda quotient argument the distinct
// depth-d views are exactly the depth-d refinement classes, so
// everything Algorithm 5 reads off the views of a depth is read here off
// dense per-class arrays instead, and no view is interned.
//
// Only two depths are alive at a time: prev (d−1) and cur (d). The
// depth-d arrays are built while depth d−1's are still held, and the
// buffers of d−1 are reused for d+1 — φ can be Θ(D log(n/D))
// (Hendrickx), 89 depths on the benchmark's grid, so keeping every
// depth would cost φ·n.
type quotient struct {
	g     *graph.Graph
	ref   *part.FrontierRefiner
	depth int

	prev, cur classLevel

	// Depth d's classes: each one's representative, its parent (its
	// class at depth d−1), and its row — per port, the depth-(d−1) class
	// of the child behind it (rows.Child) and the remote port (port).
	rep    []int32
	parent []int32
	port   []int32
	rows   trie.Rows

	// Scratch, reused across depths.
	perm    []int32 // classes in canonical order
	at      []int32 // counting-pass offsets of the groups by parent
	grouped []int32 // depth-d classes bucketed by parent
	scratch []int32 // trie builders' partition buffer
	byLabel []int32 // depth-(d−1) class of each label
	owner   []int32 // parent class of each couple
}

// classLevel is one depth of the quotient.
type classLevel struct {
	k     int
	class []int32 // class of every node
	rank  []int32 // canonical rank of every class (depths below φ)
	label []int32 // temporary label of every class (depths 1..φ)
}

// resize returns s with length n. When s lacks the capacity it is
// replaced by one of at least double the capacity, up to limit — the
// most any depth can ask for: class counts creep up one depth at a time
// on deep graphs, and growing to each depth's exact need would
// reallocate at almost every depth. The contents are not kept.
func resize(s []int32, n, limit int) []int32 {
	if cap(s) < n {
		return make([]int32, n, min(max(n, 2*cap(s)), limit))
	}
	return s[:n]
}

// perClass and perPort resize buffers indexed by class (at most n, plus
// one for offsets) and by the ports of the representatives (at most 2m).
func (q *quotient) perClass(s []int32, n int) []int32 { return resize(s, n, q.g.N()+1) }
func (q *quotient) perPort(s []int32, n int) []int32  { return resize(s, n, 2*q.g.M()) }

// newQuotient starts the walk at depth 0, where classes are degrees and
// depth-0 views (leaves labeled by degree) rank by degree.
func newQuotient(g *graph.Graph) *quotient {
	q := &quotient{g: g, ref: part.NewFrontierRefiner(g, 0)}
	k := q.ref.NumClasses()
	q.cur = classLevel{k: k, class: q.ref.CopyClasses(nil), rank: make([]int32, k)}
	perm := q.identity(k)
	degOf := func(c int32) int { return g.Deg(q.ref.Representative(int(c))) }
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(degOf(a), degOf(b)) })
	for i, c := range perm {
		q.cur.rank[c] = int32(i)
	}
	return q
}

// identity returns the perm scratch holding 0..k−1.
func (q *quotient) identity(k int) []int32 {
	q.perm = q.perClass(q.perm, k)
	for i := range q.perm {
		q.perm[i] = int32(i)
	}
	return q.perm
}

// step advances to the next depth: refine, then record every class's
// representative, parent and row. It reports false if the partition
// did not split, i.e. the graph is infeasible.
func (q *quotient) step() bool {
	q.prev, q.cur = q.cur, q.prev
	q.ref.Step()
	k := q.ref.NumClasses()
	if k == q.prev.k {
		return false
	}
	q.depth++
	g, prevClass := q.g, q.prev.class
	q.cur.k = k
	q.cur.class = q.ref.CopyClasses(q.cur.class)
	q.cur.label = q.perClass(q.cur.label, k)
	q.rep = q.perClass(q.rep, k)
	q.parent = q.perClass(q.parent, k)
	off := q.perClass(q.rows.Off, k+1)
	off[0] = 0
	for c := 0; c < k; c++ {
		r := q.ref.Representative(c)
		q.rep[c] = int32(r)
		q.parent[c] = prevClass[r]
		off[c+1] = off[c] + int32(g.Deg(r))
	}
	child := q.perPort(q.rows.Child, int(off[k]))
	q.port = q.perPort(q.port, int(off[k]))
	for c, r := range q.rep {
		o := int(off[c])
		for p := 0; p < g.Deg(int(r)); p++ {
			h := g.At(int(r), p)
			child[o+p] = prevClass[h.To]
			q.port[o+p] = int32(h.RemotePort)
		}
	}
	q.rows = trie.Rows{Off: off, Child: child, Rank: q.prev.rank, Label: q.prev.label}
	return true
}

// rank orders the current depth's classes canonically: by degree, then
// remote ports, then the ranks of the children at depth d−1 — the key
// view.rankLess sorts views by, evaluated on class rows. Distinct
// classes are distinct views, so no two keys tie and the ranks do not
// depend on the sort algorithm.
func (q *quotient) rank() {
	off, child, port, prevRank := q.rows.Off, q.rows.Child, q.port, q.prev.rank
	perm := q.identity(q.cur.k)
	q.scratch = q.perClass(q.scratch, q.cur.k)
	sortParallel(perm, q.scratch, func(a, b int32) int {
		oa, ob := off[a], off[b]
		da, db := off[a+1]-oa, off[b+1]-ob
		if da != db {
			return cmp.Compare(da, db)
		}
		for j := range da {
			if c := cmp.Compare(port[oa+j], port[ob+j]); c != 0 {
				return c
			}
		}
		for j := range da {
			if c := cmp.Compare(prevRank[child[oa+j]], prevRank[child[ob+j]]); c != 0 {
				return c
			}
		}
		return 0
	})
	q.cur.rank = q.perClass(q.cur.rank, q.cur.k)
	for i, c := range perm {
		q.cur.rank[c] = int32(i)
	}
}

// depth1 builds E1 over the encodings bin(B^1) of the depth-1 classes,
// read off the graph at each representative, and labels the classes.
func (q *quotient) depth1() trie.Trie {
	g := q.g
	encs := make([]bits.String, q.cur.k)
	for c, r := range q.rep {
		encs[c] = view.EncodeDepth1Ports(g.Deg(int(r)), func(j int) (int, int) {
			h := g.At(int(r), j)
			return h.RemotePort, g.Deg(h.To)
		})
	}
	e1 := trie.BuildDepth1(encs)
	label := q.cur.label
	parallelDo(len(encs), sweepChunk(len(encs)), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			label[c] = int32(e1.LocalLabel1(encs[c]))
		}
	})
	return e1
}

// level builds level d of E2: the depth-d classes grouped by parent,
// and for every group of two or more the couple (label of the parent,
// trie over the group's rows). The tries of a level are carved out of
// one arena — a trie over s classes has exactly 2s−1 nodes — and built
// over the worker pool; each writes only its own group's range of the
// shared buffers.
func (q *quotient) level() (trie.LevelList, error) {
	k, kPrev := q.cur.k, q.prev.k
	// Counting pass: afterwards the group of parent p is
	// grouped[groupLo(p):at[p]], in class order.
	at := q.perClass(q.at, kPrev+1)
	clear(at)
	for _, p := range q.parent {
		at[p+1]++
	}
	for p := 0; p < kPrev; p++ {
		at[p+1] += at[p]
	}
	grouped := q.perClass(q.grouped, k)
	for c, p := range q.parent {
		grouped[at[p]] = int32(c)
		at[p]++
	}
	groupLo := func(p int32) int32 {
		if p == 0 {
			return 0
		}
		return at[p-1]
	}
	// The depth-(d−1) labels are a bijection onto {1..kPrev} (Claims 3.4
	// and 3.7); walking the parents in label order emits the couples
	// sorted by J.
	byLabel := q.perClass(q.byLabel, kPrev)
	for i := range byLabel {
		byLabel[i] = -1
	}
	for p, l := range q.prev.label {
		if l < 1 || int(l) > kPrev || byLabel[l-1] >= 0 {
			return trie.LevelList{}, fmt.Errorf("advice: depth-%d labels are not a permutation of 1..%d", q.depth-1, kPrev)
		}
		byLabel[l-1] = int32(p)
	}
	couples, nodes := 0, 0
	for p := range int32(kPrev) {
		if s := int(at[p] - groupLo(p)); s > 1 {
			couples++
			nodes += 2*s - 1
		}
	}
	cs := make([]trie.Couple, 0, couples)
	owner := q.perClass(q.owner, couples)
	arena := make(trie.Trie, nodes)
	pos := 0
	for l, p := range byLabel {
		if s := int(at[p] - groupLo(p)); s > 1 {
			owner[len(cs)] = p
			cs = append(cs, trie.Couple{J: l + 1, T: arena[pos : pos+2*s-1 : pos+2*s-1]})
			pos += 2*s - 1
		}
	}
	scratch := q.perClass(q.scratch, k)
	parallelDo(len(cs), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			a, b := groupLo(owner[t]), at[owner[t]]
			q.rows.Build(cs[t].T, grouped[a:b], scratch[a:b])
		}
	})
	q.at, q.grouped, q.scratch, q.byLabel, q.owner = at, grouped, scratch, byLabel, owner
	return trie.NewLevelList(q.depth, cs), nil
}

// sweep labels the depth-d classes through level d of E2, exactly as
// RetrieveLabel labels a view: the parent's label selects the couple,
// the children's labels walk its trie.
func (q *quotient) sweep(lvl *trie.LevelList) {
	off, child, parent := q.rows.Off, q.rows.Child, q.parent
	prevLabel, label := q.prev.label, q.cur.label
	parallelDo(q.cur.k, sweepChunk(q.cur.k), func(lo, hi int) {
		var xbuf [16]int32
		x := xbuf[:0]
		for c := lo; c < hi; c++ {
			x = x[:0]
			for _, ch := range child[off[c]:off[c+1]] {
				x = append(x, prevLabel[ch])
			}
			label[c] = int32(lvl.Label(int(prevLabel[parent[c]]), x))
		}
	})
}
