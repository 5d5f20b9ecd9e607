package view

import (
	"sort"
)

// Canonical ranks.
//
// The paper orders equal-depth views "by the lexicographic order of
// their binary representations"; any fixed total order shared by oracle
// and nodes preserves its proofs (see DESIGN.md). This repository's
// canonical order is: first by root degree, then port by port by remote
// port number, then lexicographically by the canonical order of the
// child views. The old implementation compared views by walking that
// definition recursively and memoizing every pair, an O(distinct²)
// memo. Instead we assign each view an integer *rank* within its depth
// such that rank order equals canonical order; then comparing two
// equal-depth views is one integer comparison and comparing children
// inside a ranking pass is also one integer comparison, because
// children (one depth shallower) are ranked before their parents.
//
// Ranks are assigned lazily in passes. A pass over depth d snapshots
// every depth-d view registered in the shards, recursively ensures
// depth d-1 is ranked, sorts the snapshot by (Deg, remote ports, child
// ranks) and stores gen<<32|i into each view, where gen is a fresh
// generation and i the position in sorted order. Key invariants:
//
//   - The canonical order is structural and never changes; a pass only
//     *extends* the set of views whose order is materialized. Two views
//     ranked by the same pass therefore compare correctly forever, even
//     if the pass is stale (new views interned since).
//   - A complete pass overwrites the rank of *every* view of its depth,
//     so two views of equal depth whose packed generations differ can
//     only be observed mid-pass; Compare retries until it observes a
//     consistent pair.
//   - Children are registered in their shard before any parent
//     referencing them is registered (interning returns the child
//     before Make can run), so a pass that snapshots depth d first and
//     depth d-1 second never sees a parent whose child it misses.
//
// Ranking is serialized by Table.rankMu; the Compare fast path is two
// atomic loads and touches no lock.

// Compare defines the canonical total order on equal-depth views that
// this repository uses wherever the paper orders views "by the
// lexicographic order of their binary representations". Views of
// different depths are ordered by depth for totality (the paper's
// algorithms never need it). Compare is allocation-free: equal-depth
// views compare by canonical rank.
func (t *Table) Compare(a, b *View) int {
	if a == b {
		return 0
	}
	if a.Depth != b.Depth {
		if a.Depth < b.Depth {
			return -1
		}
		return 1
	}
	for {
		ra, rb := a.rank.Load(), b.rank.Load()
		if ra != 0 && rb != 0 && ra>>32 == rb>>32 {
			// Same generation: ranks materialize the canonical order.
			if ra < rb {
				return -1
			}
			return 1
		}
		t.ensureRanked(a.Depth)
	}
}

// Ranks materializes the packed canonical ranks of a slice of
// equal-depth views into dst (grown as needed) and returns it. All
// returned values are guaranteed to come from one ranking generation,
// so they are directly comparable as integers and order exactly like
// Compare — the bulk form of the Compare fast path, for callers that
// scan many candidates (the deciders' minimum-view selection).
func (t *Table) Ranks(vs []*View, dst []uint64) []uint64 {
	if len(vs) == 0 {
		return dst[:0]
	}
	d := vs[0].Depth
	for {
		dst = dst[:0]
		gen := uint64(0)
		consistent := true
		for _, v := range vs {
			if v.Depth != d {
				panic("view: Ranks requires equal-depth views")
			}
			r := v.rank.Load()
			if r == 0 || (gen != 0 && r>>32 != gen) {
				consistent = false
				break
			}
			gen = r >> 32
			dst = append(dst, r)
		}
		if consistent {
			return dst
		}
		t.ensureRanked(d)
	}
}

// CompareShallow orders views exactly like Compare but without
// materializing ranks at the views' own depth: equal-depth views
// compare by degree, then remote ports, then children under Compare —
// the canonical order's definition, evaluated one level. Ranks are only
// touched (at depth-1, lazily) if the comparison reaches the children.
// It exists for isolated comparisons at the refinement's top depth,
// where a rank pass would sort every view of that depth to decide one
// pair; wherever many views of a depth are compared, Compare's
// amortized ranks win.
func (t *Table) CompareShallow(a, b *View) int {
	if a == b {
		return 0
	}
	if a.Depth != b.Depth {
		if a.Depth < b.Depth {
			return -1
		}
		return 1
	}
	if a.Deg != b.Deg {
		if a.Deg < b.Deg {
			return -1
		}
		return 1
	}
	for i := range a.Edges {
		if pa, pb := a.Edges[i].RemotePort, b.Edges[i].RemotePort; pa != pb {
			if pa < pb {
				return -1
			}
			return 1
		}
	}
	for i := range a.Edges {
		if c := t.Compare(a.Edges[i].Child, b.Edges[i].Child); c != 0 {
			return c
		}
	}
	// Unreachable for interned views: equal (depth, deg, ports,
	// children) means the same interned view.
	panic("view: CompareShallow of structurally equal distinct views")
}

// Min returns the minimum view of a non-empty slice under Compare.
func (t *Table) Min(vs []*View) *View {
	if len(vs) == 0 {
		panic("view: Min of empty slice")
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if t.Compare(v, m) < 0 {
			m = v
		}
	}
	return m
}

// Sort sorts views in place under Compare.
func (t *Table) Sort(vs []*View) {
	sort.Slice(vs, func(i, j int) bool { return t.Compare(vs[i], vs[j]) < 0 })
}

// ensureRanked runs ranking passes so that every view of the given
// depth (and, recursively, all shallower depths) registered at call
// time carries a rank.
func (t *Table) ensureRanked(depth int) {
	t.rankMu.Lock()
	t.rankPass(depth)
	t.rankMu.Unlock()
}

// rankPass ranks depth d if any unranked views exist there. Caller
// holds rankMu.
func (t *Table) rankPass(d int) {
	for len(t.ranked) <= d {
		t.ranked = append(t.ranked, 0)
	}
	// Count before copying anything. Shard registries are append-only,
	// so an unchanged count means an unchanged set: the last pass still
	// covers everything.
	count := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		if d < len(s.byDepth) {
			count += len(s.byDepth[d])
		}
		s.mu.Unlock()
	}
	if t.ranked[d] == count {
		return
	}
	// Snapshot depth d from every shard BEFORE recursing into d-1: any
	// parent captured here has its children registered already, so the
	// subsequent d-1 snapshot is a superset of their children. Views
	// interned since the count only make the snapshot outgrow its
	// presized capacity.
	snap := make([]*View, 0, count)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		if d < len(s.byDepth) {
			snap = append(snap, s.byDepth[d]...)
		}
		s.mu.Unlock()
	}
	if d > 0 {
		t.rankPass(d - 1)
	}
	sort.Slice(snap, func(i, j int) bool { return rankLess(snap[i], snap[j]) })
	t.rankGen++
	gen := t.rankGen << 32
	for i, v := range snap {
		v.rank.Store(gen | uint64(i))
	}
	t.ranked[d] = len(snap)
}

// rankLess is the canonical order used inside a ranking pass: degree,
// then remote ports, then child ranks. All children are one depth
// shallower and were ranked by a single complete pass, so their packed
// (generation, rank) values are directly comparable. Distinct views
// never compare equal: an equal key means pointer-equal children, which
// interning forbids for two distinct views.
func rankLess(a, b *View) bool {
	if a.Deg != b.Deg {
		return a.Deg < b.Deg
	}
	for i := range a.Edges {
		if pa, pb := a.Edges[i].RemotePort, b.Edges[i].RemotePort; pa != pb {
			return pa < pb
		}
	}
	for i := range a.Edges {
		if ra, rb := a.Edges[i].Child.rank.Load(), b.Edges[i].Child.rank.Load(); ra != rb {
			return ra < rb
		}
	}
	return false
}
