// Package classviews materializes one interned view per view-equivalence
// class per depth — the class-sharing core of sim.RunBSP's view path,
// which must hand every node of a program that reads views its view
// B^r(v). The asynchronous engine reaches it only through RunBSP, whose
// election it replays; label programs such as Algorithm Elect and the
// Theorem 3.1 oracle (advice.ComputeAdvice) do not use it: they
// compute on labels or on the class quotient itself and intern no
// view.
//
// Nodes in the same view-equivalence class at depth l carry *identical*
// B^l(v) — the Yamashita–Kameda quotient argument behind Proposition
// 2.1 — so no algorithm ever needs more than one interned view per
// class. A Materializer pumps a view-free part.FrontierRefiner step per
// depth to track the classes, assembles one packed edge matrix row
// per class representative (children read through the previous depth's
// classes), and interns the rows with Table.MakeBatch. Every node's
// view at the current depth is Views()[Class()[v]], and — because
// interning makes structural equality pointer equality — it is the very
// same *view.View that a per-node refinement (view.Levels) would have
// produced, which is what TestMaterializerMatchesLevels pins.
//
// Once the class count stops growing the partition is stable forever
// (classes only ever split, and the first repeat is a fixed point); the
// refiner is then left frozen and later Steps only deepen the class
// views.
//
// Buffers are reused across depths. The packed edge matrix grows with
// the live class count instead of being preallocated: its worst case,
// one row per node (2m edges), only materializes on graphs that refine
// to discrete, and at n = 10M an eager 2m-edge buffer costs ~0.5 GB
// before the first Step runs. Each Step computes its row offsets first;
// when the rows outgrow the matrix, it is replaced by one of at least
// double the capacity, capped at 2m. Growing to each depth's exact need
// would instead reallocate at almost every depth of a deep graph, whose
// class count creeps up one depth at a time.
package classviews

import (
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/view"
)

// Materializer tracks, depth by depth, the view classes of a graph and
// one interned representative view per class. It is not safe for
// concurrent use; the slices returned by Class and Views alias internal
// state and are valid until the next Step.
type Materializer struct {
	g   *graph.Graph
	tab *view.Table
	ref part.Engine

	class     []int32 // class[v] at the current depth
	classPrev []int32 // scratch for the previous depth's classes
	views     []*view.View
	next      []*view.View
	k         int
	stable    bool

	// Packed edge matrix of the class representatives, rebuilt in place
	// every Step: row c is flat[off[c]:off[c+1]]. See the package comment
	// for how it grows.
	flat []view.Edge
	off  []int32
}

// New starts materialization of g at depth 0: classes are degrees, and
// the class views are the interned depth-0 leaves. The partition is
// tracked by the frontier-parallel refiner, whose class numbering is
// bit-identical to part.Refiner's, so every consumer sees the exact
// views and classes it always did.
func New(tab *view.Table, g *graph.Graph) *Materializer {
	n := g.N()
	m := &Materializer{g: g, tab: tab, ref: part.NewFrontierRefiner(g, 0)}
	m.class = m.ref.CopyClasses(nil)
	m.classPrev = make([]int32, n)
	m.k = m.ref.NumClasses()
	m.views = make([]*view.View, n)
	m.next = make([]*view.View, n)
	degs := make([]int, m.k)
	for c := 0; c < m.k; c++ {
		degs[c] = g.Deg(m.ref.Representative(c))
	}
	tab.LeafBatch(degs, m.views[:m.k])
	m.stable = m.k == n
	return m
}

// NumClasses returns the number of view classes at the current depth.
func (m *Materializer) NumClasses() int { return m.k }

// Stable reports whether the partition has reached its fixed point (it
// can no longer split; on feasible graphs this first happens at the
// depth where every class is a singleton).
func (m *Materializer) Stable() bool { return m.stable }

// Class returns the per-node classes at the current depth, numbered by
// first occurrence in node order. The slice aliases internal state:
// read-only, valid until the next Step.
func (m *Materializer) Class() []int32 { return m.class }

// Views returns the interned class views at the current depth d, indexed
// by class: Views()[Class()[v]] == B^d(v) for every node v, where d is
// the number of Steps taken. The slice aliases internal state:
// read-only, valid until the next Step.
func (m *Materializer) Views() []*view.View { return m.views[:m.k] }

// Representative returns the smallest node id of class c at the current
// depth.
func (m *Materializer) Representative(c int) int { return m.ref.Representative(c) }

// Step advances one depth: refine the partition (unless already
// stable), then intern one representative view per class, with the
// representatives' children read through the previous depth's classes.
func (m *Materializer) Step() {
	// prev must map every node to its class at the depth the current
	// views were built for. When the refiner just stabilized (or was
	// already stable) the classes and their first-occurrence numbering
	// are unchanged, so the current class slice doubles as prev.
	prev := m.class
	if !m.stable {
		m.ref.Step()
		if m.ref.NumClasses() == m.k {
			m.stable = true
		} else {
			m.classPrev, m.class = m.class, m.classPrev
			m.class = m.ref.CopyClasses(m.class)
			m.k = m.ref.NumClasses()
			prev = m.classPrev
			m.stable = m.k == m.g.N()
		}
	}
	if cap(m.off) < m.k+1 {
		m.off = make([]int32, m.k+1, m.k+m.k/2+1)
	}
	m.off = m.off[:m.k+1]
	for c := 0; c < m.k; c++ {
		m.off[c+1] = m.off[c] + int32(m.g.Deg(m.ref.Representative(c)))
	}
	if need := int(m.off[m.k]); cap(m.flat) < need {
		m.flat = make([]view.Edge, min(max(need, 2*cap(m.flat)), 2*m.g.M()))
	}
	for c := 0; c < m.k; c++ {
		w := m.ref.Representative(c)
		row := m.flat[m.off[c]:m.off[c+1]]
		for p := range row {
			h := m.g.At(w, p)
			row[p] = view.Edge{RemotePort: h.RemotePort, Child: m.views[prev[h.To]]}
		}
	}
	m.tab.MakeBatch(m.flat, m.off[:m.k+1], m.next[:m.k])
	// The depth-d view of class c's representative IS the truncation of
	// its new depth-(d+1) view (Proposition 2.1), so seed the Truncate
	// memo: labelers truncate every view they label, and the seeded memo
	// turns those walks into pointer loads.
	for c := 0; c < m.k; c++ {
		m.tab.SeedTruncation(m.next[c], m.views[prev[m.ref.Representative(c)]])
	}
	m.views, m.next = m.next, m.views
}
