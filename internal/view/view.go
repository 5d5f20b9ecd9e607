// Package view implements augmented truncated views B^l(v), the central
// notion of anonymous network computing (Yamashita & Kameda), exactly as
// used by the paper.
//
// The truncated view V^l(v) is the port-labeled tree of all walks of
// length at most l starting at v; the augmented truncated view B^l(v) is
// V^l(v) with every leaf labeled by its degree in the graph. B^l
// materialized as a tree has size Θ(Δ^l), but a graph on n nodes has at
// most n distinct views at each depth, so this package hash-conses views:
// a View is an immutable interned value, structural equality is pointer
// equality, and B^l(v) is a DAG of at most n·l interned nodes.
//
// A Table owns the interning state; every View belongs to exactly one
// Table and views from different tables must not be mixed (algorithms in
// this repository thread a single Table through oracle and simulator).
//
// The interning core is built for the goroutine-per-node simulator: the
// table is sharded by a 64-bit structural hash so concurrent interns of
// unrelated views never contend, and the canonical order on views is
// realized as per-depth integer ranks so Compare, Min and Sort are
// allocation-free. See DESIGN.md for the invariants.
package view

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bits"
)

// Edge is one port of the root of a view: the port number at the far end
// of the edge and the child view (the far endpoint's view one level
// shallower). For depth-0 views there are no edges.
type Edge struct {
	RemotePort int
	Child      *View
}

// View is an interned augmented truncated view. The root degree is Deg;
// Edges has length Deg and is indexed by the local port number. Depth 0
// views are leaves carrying only their degree (the "augmented" labeling).
type View struct {
	Depth int
	Deg   int
	Edges []Edge
	id    uint64               // interning identity, unique within a Table
	trunc atomic.Pointer[View] // memoized Truncate result
	// rank packs (generation<<32 | canonical rank) for the canonical
	// per-depth order; 0 means not yet ranked. See rank.go.
	rank atomic.Uint64
}

// ID returns the table-local interning identity of v. Views are equal iff
// their pointers (equivalently IDs within one table) are equal.
func (v *View) ID() uint64 { return v.id }

// numShards stripes the intern table; must be a power of two. 64 shards
// keep goroutine-per-node simulations of a few hundred nodes essentially
// contention-free while costing ~3KB per table.
const numShards = 64

// shard is one stripe of the intern table. first maps a structural hash
// to the first view bearing it; genuine 64-bit collisions are resolved
// by structural comparison against the overflow bucket, which stays
// empty in practice (keeping the common insert to a single map store).
// byDepth[d] registers every view of depth d created in this shard, in
// creation order, for the rank machinery; appending here under the same
// critical section that publishes the view guarantees rank passes never
// miss a reachable view.
//
// views and edges are the slabs the shard carves new views and their
// edge rows out of, under mu: the filled prefix (len) is in use, the
// rest (up to cap) is free. A full slab is replaced, never grown by
// copy, because views are addressed by pointer. Slabs keep nothing
// alive that byDepth does not already keep alive for the table's
// lifetime.
type shard struct {
	mu       sync.Mutex
	first    map[uint64]*View
	overflow map[uint64][]*View
	byDepth  [][]*View
	views    []View
	edges    []Edge
}

// Slab sizes, in views and in edges. Slabs start small and double up to
// the cap, so a table of a few views (tests build many; TreeElect builds
// one per Decide) stays a few hundred bytes per used shard, while a
// large table wastes at most one partly filled slab per shard.
const (
	minSlabViews = 4
	maxSlabViews = 1024
	minSlabEdges = 16
	maxSlabEdges = 4096
)

// slabSize returns the capacity of the slab that replaces a full one of
// capacity cur: double it (starting at lo) until it holds need, but
// never past hi. Callers guarantee need <= hi.
func slabSize(cur, lo, hi, need int) int {
	size := max(2*cur, lo)
	for size < need {
		size *= 2
	}
	return min(size, hi)
}

// newView carves a zeroed view out of the shard's view slab. Caller
// holds s.mu.
func (s *shard) newView() *View {
	if len(s.views) == cap(s.views) {
		s.views = make([]View, 0, slabSize(cap(s.views), minSlabViews, maxSlabViews, 1))
	}
	s.views = s.views[:len(s.views)+1]
	return &s.views[len(s.views)-1]
}

// edgeRow copies edges into a row carved out of the shard's edge slab.
// The row is cut with a full slice expression, so appending to it can
// never write into a neighboring row; rows longer than a whole slab get
// their own allocation. Caller holds s.mu.
func (s *shard) edgeRow(edges []Edge) []Edge {
	n := len(edges)
	if n > maxSlabEdges {
		row := make([]Edge, n)
		copy(row, edges)
		return row
	}
	if cap(s.edges)-len(s.edges) < n {
		s.edges = make([]Edge, 0, slabSize(cap(s.edges), minSlabEdges, maxSlabEdges, n))
	}
	lo := len(s.edges)
	s.edges = append(s.edges, edges...)
	return s.edges[lo:len(s.edges):len(s.edges)]
}

// Table interns views. It is safe for concurrent use, so the goroutine
// simulator can intern received views in parallel.
type Table struct {
	nextID atomic.Uint64
	shards [numShards]shard

	// Canonical-rank state; see rank.go.
	rankMu  sync.Mutex
	rankGen uint64
	ranked  []int // ranked[d] = #depth-d views covered by the last complete pass

	// hashHook, when non-nil, replaces hashView; set only by collision
	// tests (before any interning) to force every view into one bucket.
	hashHook func(depth, deg int, edges []Edge) uint64
}

// NewTable returns an empty interning table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].first = make(map[uint64]*View)
	}
	return t
}

// Size returns the number of distinct views interned so far.
func (t *Table) Size() int { return int(t.nextID.Load()) }

// Leaf interns the depth-0 view of a node of the given degree.
func (t *Table) Leaf(deg int) *View {
	if deg < 0 {
		panic("view: negative degree")
	}
	return t.intern(0, deg, nil)
}

// Make interns the view of depth d+1 whose root has the given edges; the
// children must all be interned in this table and have equal depth d.
// Make does not retain edges: callers may reuse the slice.
func (t *Table) Make(edges []Edge) *View {
	if len(edges) == 0 {
		panic("view: Make requires at least one edge; use Leaf for isolated roots")
	}
	d := edges[0].Child.Depth
	for _, e := range edges {
		if e.Child == nil {
			panic("view: nil child")
		}
		if e.Child.Depth != d {
			panic("view: children of unequal depth")
		}
	}
	return t.intern(d+1, len(edges), edges)
}

// LeafBatch interns out[i] = Leaf(degs[i]) for every i. Bulk form of
// Leaf for the class-sharing simulation engine, which seeds one
// depth-0 view per refinement class.
func (t *Table) LeafBatch(degs []int, out []*View) {
	for i, d := range degs {
		out[i] = t.Leaf(d)
	}
}

// MakeBatch interns out[i] = Make(flat[off[i]:off[i+1]]) for every i
// (len(off) = len(out)+1). Bulk form of Make for engines that assemble
// one packed edge matrix per round — one row per view-class
// representative — and re-intern it against mostly-warm shards. Rows get
// exactly Make's semantics, including the child-depth checks; flat is
// not retained.
func (t *Table) MakeBatch(flat []Edge, off []int32, out []*View) {
	for i := range out {
		out[i] = t.Make(flat[off[i]:off[i+1]])
	}
}

// hashView is the allocation-free structural intern key: FNV-1a over the
// depth, the degree, and the (remote port, child identity) sequence,
// finished with a splitmix64 avalanche so the low bits that select the
// shard are well mixed. Child identity is the child's interning id,
// which is sound because children are interned before parents.
func hashView(depth, deg int, edges []Edge) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(depth)) * prime64
	h = (h ^ uint64(deg)) * prime64
	for i := range edges {
		h = (h ^ uint64(edges[i].RemotePort)) * prime64
		h = (h ^ edges[i].Child.id) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// sameStructure reports whether an interned view matches a candidate
// key. Children compare by pointer: they are interned, so structural
// equality below the root is pointer equality.
func sameStructure(v *View, depth, deg int, edges []Edge) bool {
	if v.Depth != depth || v.Deg != deg {
		return false
	}
	for i := range edges {
		if v.Edges[i].RemotePort != edges[i].RemotePort || v.Edges[i].Child != edges[i].Child {
			return false
		}
	}
	return true
}

func (t *Table) intern(depth, deg int, edges []Edge) *View {
	var h uint64
	if t.hashHook == nil {
		h = hashView(depth, deg, edges)
	} else {
		h = t.hashHook(depth, deg, edges)
	}
	s := &t.shards[h&(numShards-1)]
	s.mu.Lock()
	head, collided := s.first[h]
	if head != nil {
		if sameStructure(head, depth, deg, edges) {
			s.mu.Unlock()
			return head
		}
		for _, v := range s.overflow[h] {
			if sameStructure(v, depth, deg, edges) {
				s.mu.Unlock()
				return v
			}
		}
	}
	v := s.newView()
	v.Depth, v.Deg, v.id = depth, deg, t.nextID.Add(1)-1
	if len(edges) > 0 {
		v.Edges = s.edgeRow(edges)
	}
	// Register for ranking before publishing in the bucket: any
	// goroutine that can obtain v is then guaranteed a rank pass will
	// cover it (rank passes lock every shard), so Compare cannot spin.
	for len(s.byDepth) <= depth {
		s.byDepth = append(s.byDepth, nil)
	}
	s.byDepth[depth] = append(s.byDepth[depth], v)
	if !collided {
		s.first[h] = v
	} else {
		if s.overflow == nil {
			s.overflow = make(map[uint64][]*View)
		}
		s.overflow[h] = append(s.overflow[h], v)
	}
	s.mu.Unlock()
	return v
}

// Truncate returns the view one level shallower than v, i.e. B^{d-1} of
// the same root. It panics for depth-0 views. Results are memoized on
// the view itself; the benign race on the memo is idempotent because
// both writers store the same interned pointer.
func (t *Table) Truncate(v *View) *View {
	if v.Depth == 0 {
		panic("view: cannot truncate a depth-0 view")
	}
	if c := v.trunc.Load(); c != nil {
		return c
	}
	var out *View
	if v.Depth == 1 {
		out = t.Leaf(v.Deg)
	} else {
		edges := make([]Edge, len(v.Edges))
		for i, e := range v.Edges {
			edges[i] = Edge{RemotePort: e.RemotePort, Child: t.Truncate(e.Child)}
		}
		out = t.Make(edges)
	}
	v.trunc.Store(out)
	return out
}

// SeedTruncation records tr as the memoized Truncate result of v. The
// caller must guarantee tr == Truncate(v); the class-sharing
// materializer can, structurally — it builds the depth-(d+1) view of a
// class from the depth-d class views of its members' neighbors, so the
// depth-d view of the same class is the truncation by Proposition 2.1.
// Seeding makes every later Truncate of a materialized class view O(1)
// instead of a full re-interning walk of its DAG (RetrieveLabel
// truncates every view it labels, so the oracle and Algorithm Elect
// both sit on this path).
func (t *Table) SeedTruncation(v, tr *View) {
	if tr.Depth != v.Depth-1 {
		panic(fmt.Sprintf("view: seeding depth-%d view with depth-%d truncation", v.Depth, tr.Depth))
	}
	v.trunc.Store(tr)
}

// TruncateTo truncates v down to the given depth (<= v.Depth).
func (t *Table) TruncateTo(v *View, depth int) *View {
	if depth > v.Depth || depth < 0 {
		panic(fmt.Sprintf("view: cannot truncate depth-%d view to depth %d", v.Depth, depth))
	}
	for v.Depth > depth {
		v = t.Truncate(v)
	}
	return v
}

// EncodeDepth1 returns the paper's exact binary encoding bin(B^1(v)) of a
// depth-1 view (Section 3): the view is the list
// ((0, a_0, b_0), ..., (k-1, a_{k-1}, b_{k-1})) where a_j is the remote
// port of port j and b_j the degree of the neighbor behind port j, and
// the encoding is Concat(Concat(bin(0), bin(a_0), bin(b_0)), ...). The
// depth-1 trie queries of BuildTrie inspect lengths and individual bits
// of this encoding, so it is materialized exactly.
func EncodeDepth1(v *View) bits.String {
	if v.Depth != 1 {
		panic(fmt.Sprintf("view: EncodeDepth1 of depth-%d view", v.Depth))
	}
	return EncodeDepth1Ports(v.Deg, func(j int) (int, int) {
		return v.Edges[j].RemotePort, v.Edges[j].Child.Deg
	})
}

// EncodeDepth1Ports is EncodeDepth1 of the depth-1 view whose root has
// deg ports, port(j) giving the remote port behind port j and the
// degree of the neighbor there. The oracle reads these off the graph,
// without a view; EncodeDepth1 reads them off the view.
//
// The nested Concat is written out directly — bin digits quadrupled
// (doubled by the inner Concat, doubled again by the outer), inner
// separators 01 doubled to 0011, outer separators plain 01 — into one
// buffer sized to the exact bit length before anything is written, so
// an encoding is one allocation. TestEncodeDepth1MatchesNestedConcat
// pins the output to the Concat/ConcatInts composition bit for bit.
func EncodeDepth1Ports(deg int, port func(j int) (remotePort, nbrDeg int)) bits.String {
	w := bits.NewWriter(depth1Len(deg, port))
	writeDepth1(&w, deg, port)
	return w.Take()
}

// Depth1Bytes returns the number of bytes the bits of
// EncodeDepth1Ports(deg, port) take.
func Depth1Bytes(deg int, port func(j int) (remotePort, nbrDeg int)) int {
	return (depth1Len(deg, port) + 7) >> 3
}

// EncodeDepth1Into is EncodeDepth1Ports written into the front of buf,
// which must hold at least Depth1Bytes(deg, port) bytes. The encoding
// holds exactly those bytes and the rest of buf is returned, so an
// encoder carves the encodings of many views out of one buffer.
func EncodeDepth1Into(buf []byte, deg int, port func(j int) (remotePort, nbrDeg int)) (bits.String, []byte) {
	w := bits.WriterOn(buf)
	writeDepth1(&w, deg, port)
	s := w.Take()
	return s, buf[(s.Len()+7)>>3:]
}

// depth1Len is the length in bits of the encoding of a depth-1 view.
func depth1Len(deg int, port func(j int) (remotePort, nbrDeg int)) int {
	n := 2 * max(deg-1, 0) // outer separators
	for j := 0; j < deg; j++ {
		a, b := port(j)
		n += 4*(bits.BinLen(j)+bits.BinLen(a)+bits.BinLen(b)) + 8
	}
	return n
}

// WriteDepth1 is EncodeDepth1Ports for ports given as slices — port j
// leads to port remote[j] of a neighbor of degree nbrDeg[j] — written
// into w after resetting it. The result shares w's buffer (it is valid
// until w's next write), so a caller that keeps one writer encodes
// without allocating once the buffer has grown to its largest view.
func WriteDepth1(w *bits.Writer, remote, nbrDeg []int32) bits.String {
	w.Reset()
	writeDepth1(w, len(remote), func(j int) (int, int) { return int(remote[j]), int(nbrDeg[j]) })
	return w.Peek()
}

func writeDepth1(w *bits.Writer, deg int, port func(j int) (remotePort, nbrDeg int)) {
	for j := 0; j < deg; j++ {
		a, b := port(j)
		if j > 0 {
			w.WriteBits(0b01, 2) // outer separator, not doubled
		}
		w.WriteBinRepeated(j, 4) // bin digits doubled twice
		w.WriteBits(0b0011, 4)   // inner separator 01, doubled once
		w.WriteBinRepeated(a, 4)
		w.WriteBits(0b0011, 4)
		w.WriteBinRepeated(b, 4)
	}
}

// distinctCount returns the number of distinct views in vs.
func distinctCount(vs []*View) int {
	set := make(map[*View]struct{}, len(vs))
	for _, v := range vs {
		set[v] = struct{}{}
	}
	return len(set)
}
