package advice

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/par"
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
//
// The canonical view order is read in one place: Rows.Build sorts the
// members of one E2 couple by their children's ranks, and the children
// behind one port of such members are siblings (classes with the same
// parent). So a class is ranked only among its siblings, by the sort of
// its own group — Rows.Build at depth d ≥ 2, rankDepth1 at depth 1 —
// and no depth is ever sorted as a whole.
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
	at      []int32 // group offsets: parent p's group is grouped[at[p]:at[p+1]]
	grouped []int32 // depth-d classes bucketed by parent
	scratch []int32 // trie builders' partition buffer
	byLabel []int32 // depth-(d−1) class of each label
	owner   []int32 // parent class of each couple
}

// classLevel is one depth of the quotient.
type classLevel struct {
	k     int
	class []int32 // class of every node
	rank  []int32 // canonical rank of every class among its siblings (depths below φ)
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

// newQuotient starts the walk at depth 0, where classes are degrees,
// all siblings, and depth-0 views (leaves labeled by degree) rank by
// degree.
func newQuotient(g *graph.Graph) *quotient {
	q := &quotient{g: g, ref: part.NewFrontierRefiner(g, 0)}
	k := q.ref.NumClasses()
	q.cur = classLevel{k: k, class: q.ref.CopyClasses(nil), rank: make([]int32, k)}
	byDeg := make([]int32, k)
	for i := range byDeg {
		byDeg[i] = int32(i)
	}
	degOf := func(c int32) int { return g.Deg(q.ref.Representative(int(c))) }
	slices.SortFunc(byDeg, func(a, b int32) int { return cmp.Compare(degOf(a), degOf(b)) })
	for i, c := range byDeg {
		q.cur.rank[c] = int32(i)
	}
	return q
}

// next advances the walk one depth and computes what Algorithm 5 reads
// off it: E1 at depth 1, level d of E2 at depth d ≥ 2, the labels, and
// the sibling ranks the next depth's rows compare by. It reports false
// if the partition did not split, i.e. the graph is infeasible.
func (q *quotient) next(e1 *trie.Trie, e2 *trie.E2) (bool, error) {
	if !q.step() {
		return false, nil
	}
	if q.depth == 1 {
		*e1 = q.depth1()
		// Depth φ has no next depth to rank for.
		if q.cur.k < q.g.N() {
			q.rankDepth1()
		}
		return true, nil
	}
	lvl, err := q.level()
	if err != nil {
		return false, err
	}
	*e2 = append(*e2, lvl)
	q.sweep(&(*e2)[len(*e2)-1])
	return true, nil
}

// step advances to the next depth: refine, then record every class's
// representative, parent and row. It reports false if the partition
// did not split.
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

// group buckets the current depth's classes by parent with one counting
// pass: afterwards the group of parent p is grouped[at[p]:at[p+1]], in
// class order.
func (q *quotient) group() (at, grouped []int32) {
	at = q.perClass(q.at, q.prev.k+2)
	clear(at)
	for _, p := range q.parent {
		at[p+2]++
	}
	for p := range q.prev.k {
		at[p+2] += at[p+1]
	}
	grouped = q.perClass(q.grouped, q.cur.k)
	for c, p := range q.parent {
		grouped[at[p+1]] = int32(c)
		at[p+1]++
	}
	q.at, q.grouped = at, grouped
	return at, grouped
}

// rankDepth1 ranks the depth-1 classes among their siblings, the classes
// of one degree: by remote ports, then the depth-0 ranks of the
// children — the key view.rankLess sorts views by, below the degree.
// Distinct classes are distinct views, so no two keys tie. The groups
// are sorted in parallel.
func (q *quotient) rankDepth1() {
	off, child, port, prevRank := q.rows.Off, q.rows.Child, q.port, q.prev.rank
	at, grouped := q.group()
	rank := q.perClass(q.cur.rank, q.cur.k)
	par.For(q.prev.k, q.cur.k, 0, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			members := grouped[at[p]:at[p+1]]
			slices.SortFunc(members, func(a, b int32) int {
				oa, ob := off[a], off[b]
				for j := range off[a+1] - oa {
					if c := cmp.Compare(port[oa+j], port[ob+j]); c != 0 {
						return c
					}
				}
				for j := range off[a+1] - oa {
					if c := cmp.Compare(prevRank[child[oa+j]], prevRank[child[ob+j]]); c != 0 {
						return c
					}
				}
				return 0
			})
			for i, c := range members {
				rank[c] = int32(i)
			}
		}
	})
	q.cur.rank = rank
}

// depth1 builds E1 over the encodings bin(B^1) of the depth-1 classes,
// read off the graph at each representative, and labels the classes.
// The encodings share one buffer, each on bytes of its own.
func (q *quotient) depth1() trie.Trie {
	g := q.g
	var r int // the representative whose ports port reads
	port := func(j int) (int, int) {
		h := g.At(r, j)
		return h.RemotePort, g.Deg(h.To)
	}
	size := 0
	for _, rc := range q.rep {
		r = int(rc)
		size += view.Depth1Bytes(g.Deg(r), port)
	}
	buf := make([]byte, size)
	encs := make([]bits.String, q.cur.k)
	for c, rc := range q.rep {
		r = int(rc)
		encs[c], buf = view.EncodeDepth1Into(buf, g.Deg(r), port)
	}
	e1 := trie.BuildDepth1(encs)
	label := q.cur.label
	par.For(len(encs), len(encs), 0, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			label[c] = int32(e1.LocalLabel1(encs[c]))
		}
	})
	return e1
}

// level builds level d of E2: the depth-d classes grouped by parent,
// and for every group of two or more the couple (label of the parent,
// trie over the group's rows). Building a group's trie ranks its
// members; a class alone in its group is never compared with another,
// so its rank is 0. The tries of a level are carved out of one arena —
// a trie over s classes has exactly 2s−1 nodes — and built in parallel;
// each writes only its own group's range of the shared buffers and its
// members' ranks.
func (q *quotient) level() (trie.LevelList, error) {
	k, kPrev := q.cur.k, q.prev.k
	at, grouped := q.group()
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
	for p := range kPrev {
		if s := int(at[p+1] - at[p]); s > 1 {
			couples++
			nodes += 2*s - 1
		}
	}
	cs := make([]trie.Couple, 0, couples)
	owner := q.perClass(q.owner, couples)
	arena := make(trie.Trie, nodes)
	pos := 0
	for l, p := range byLabel {
		if s := int(at[p+1] - at[p]); s > 1 {
			owner[len(cs)] = p
			cs = append(cs, trie.Couple{J: l + 1, T: arena[pos : pos+2*s-1 : pos+2*s-1]})
			pos += 2*s - 1
		}
	}
	rank := q.perClass(q.cur.rank, k)
	clear(rank)
	scratch := q.perClass(q.scratch, k)
	par.For(len(cs), k, 0, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			a, b := at[owner[t]], at[owner[t]+1]
			q.rows.Build(cs[t].T, grouped[a:b], scratch[a:b], rank)
		}
	})
	q.cur.rank, q.scratch, q.byLabel, q.owner = rank, scratch, byLabel, owner
	return trie.NewLevelList(q.depth, cs), nil
}

// sweep labels the depth-d classes through level d of E2, exactly as
// RetrieveLabel labels a view: the parent's label selects the couple,
// the children's labels walk its trie.
func (q *quotient) sweep(lvl *trie.LevelList) {
	off, child, parent := q.rows.Off, q.rows.Child, q.parent
	prevLabel, label := q.prev.label, q.cur.label
	par.For(q.cur.k, q.cur.k, 0, func(_, lo, hi int) {
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
