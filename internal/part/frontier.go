// Frontier-parallel partition refinement.
//
// Refiner re-splits every class at every depth on one goroutine —
// O(n+m) per depth even when almost nothing changes. The Paige–Tarjan
// worklist discipline says only classes adjacent to a class that split
// at the previous depth can split at this one: the depth-(l+1) key of a
// node is its per-port vector of depth-l neighbor classes, so if no
// neighbor of any member of class c changed class between depths l-1
// and l, the members' keys are unchanged, they were equal (that is why
// they sit in one class), and c cannot split. On large-diameter
// families (grids, paths, lollipop tails) the refinement stabilizes in
// Θ(D) depths but each depth only moves a thin wavefront, so the active
// frontier is a vanishing fraction of n and the full sweep is almost
// entirely wasted work; Hendrickx's O(D log(n/D)) stabilization bound
// makes the same point for every graph.
//
// FrontierRefiner iterates exactly Refiner's recurrence under that
// discipline:
//
//   - classes carry persistent internal ids and live as contiguous,
//     ascending runs of the order array; a split rearranges only the
//     parent's run, so there is no global regroup pass;
//   - the frontier is the set of classes CREATED at the previous Step.
//     Split keys read neighbor ids, and a split leaves the retained
//     part's id unchanged, so the only ids a key can newly mention are
//     the carved ones: rescanning the retained part is pure waste. The
//     LARGEST part of every split keeps the parent id (Hopcroft's
//     rule), so a node re-enters the frontier only when its class at
//     least halves — O(log n) scans per node over the whole run. The
//     touch phase walks the new classes' members' edges, claims the
//     neighbor classes with atomic fetch-or bits over a []uint64
//     bitmap (Ligra-style), and marks each neighbor node "touched" in
//     a second bitmap;
//   - dirty classes are split by the same counting passes as
//     Refiner.splitBy, parallelized over the worker count: runs are
//     disjoint position ranges of the shared scratch arrays, so workers
//     share them race-free, and each worker keys neighbor classes
//     through a small stamped open-addressing table instead of an
//     O(n)-sized sparse map. Untouched members of a dirty class kept
//     their entire key vector, and a touched member's vector always
//     differs from an untouched one's at the port through which it was
//     touched, so the untouched block is lumped into one part with no
//     per-port hashing and only the touched tail is refined — the
//     Hopcroft-flavored move that keeps a giant class that sheds a thin
//     boundary every depth (grids) from being rehashed wholesale;
//   - new persistent ids and the next frontier are assigned after a
//     barrier from per-worker subgroup counts merged by prefix sum, so
//     the result is independent of the worker count.
//
// Canonical (first-occurrence) class numbering — the contract every
// consumer is pinned to — is computed lazily, once per depth, by a
// single O(n) scan the first time an accessor needs it. ElectionIndex
// never does: it only watches the class count, so a depth that moves a
// small frontier costs O(frontier), not O(n). The equivalence invariant
// (TestFrontierMatchesRefiner) is that every accessor returns exactly
// what Refiner's would at the same depth, on every graph, for every
// worker count.
package part

import (
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Engine is the partition-refinement surface shared by Refiner,
// FrontierRefiner and the view-based reference: one synchronous
// refinement depth per Step, classes numbered by first occurrence in
// node order at every depth. classviews.Materializer (and through it
// RunBSP's view path, which the asynchronous engine replays) drives
// any Engine; the oracle drives a FrontierRefiner directly. The
// bit-identical numbering contract is what makes them interchangeable.
type Engine interface {
	Depth() int
	NumClasses() int
	ClassOf(v int) int
	Classes() []int
	Representative(c int) int
	Representatives() []int
	CopyClasses(dst []int32) []int32
	Step()
}

var (
	_ Engine = (*Refiner)(nil)
	_ Engine = (*FrontierRefiner)(nil)
)

// FrontierRefiner is the frontier-parallel Engine. Construct with
// NewFrontierRefiner; the zero value is not usable. Safe for use from
// one goroutine; Step internally fans out to the configured workers.
type FrontierRefiner struct {
	n       int
	workers int // par.Workers of the constructor's count: len(ws)

	// g's CSR, read only, as in Refiner.
	off    []int32
	nbr    []int32
	rp     []int32
	maxDeg int

	class []int32 // persistent class id per node
	order []int32 // members, one contiguous ascending run per class
	grp   []int32 // per-position subgroup scratch
	grp2  []int32
	buf   []int32 // stable-scatter targets
	bufG  []int32

	// Per persistent id: the class's run [runStart, runEnd) in order.
	// A split rearranges only within the parent's span: the largest
	// part keeps the parent id and the other segments get fresh ids, so
	// no members ever move between spans.
	runStart []int32
	runEnd   []int32
	nextID   int32 // first unused persistent id
	k        int   // live class count
	depth    int

	frontier  []int32 // ids created at the last Step
	frontier2 []int32 // arena for the next frontier, reused every depth

	claimed []uint64 // claim bitmap over persistent ids (touch phase)
	touched []uint64 // per-node bitmap: has a neighbor with a new id

	// Per-depth arenas, reset (not reallocated) every Step.
	dirty    []int32 // dirty class ids, sorted by run start
	parts    []int32 // subgroup count per dirty class
	idBase   []int32 // first new persistent id per dirty class
	frontOff []int32 // offset of each dirty class's frontier entries

	// Lazy canonical numbering (first occurrence in node order).
	canonValid bool
	canonGen   int32
	canonSeen  []int32 // persistent id -> generation last seen
	canonOf    []int32 // persistent id -> canonical id
	canonRep   []int32 // canonical id -> persistent id

	ws []*frontierWorker
}

// frontierWorker is the per-worker split scratch: a stamped
// open-addressing table keying neighbor classes (persistent ids can
// reach 2n, so the dense stamp maps Refiner uses would cost O(n) per
// worker), a dense stamped table for remote ports (bounded by the max
// degree), per-subgroup counters for the stable scatter, and the
// worker's slice of the touch phase's dirty-class discoveries.
type frontierWorker struct {
	keys      []int32
	vals      []int32
	slotStamp []int32
	stamp     int32
	mask      int32

	pmark  []int32
	psub   []int32
	pstamp int32

	cnt   []int32
	dirty []int32
}

// NewFrontierRefiner starts frontier refinement of g at depth 0
// (classes = degrees, numbered by first occurrence). workers <= 0
// selects GOMAXPROCS; whatever the worker count, every accessor is
// bit-identical to NewRefiner(g) stepped to the same depth.
func NewFrontierRefiner(g *graph.Graph, workers int) *FrontierRefiner {
	workers = par.Workers(workers)
	n := g.N()
	r := &FrontierRefiner{n: n, workers: workers, maxDeg: g.MaxDegree()}
	r.off, r.nbr, r.rp = g.CSR()
	r.ws = make([]*frontierWorker, workers)
	for w := range r.ws {
		r.ws[w] = &frontierWorker{}
	}

	r.class = make([]int32, n)
	r.order = make([]int32, n)
	r.grp = make([]int32, n)
	r.grp2 = make([]int32, n)
	r.buf = make([]int32, n)
	r.bufG = make([]int32, n)
	r.touched = make([]uint64, (n+63)/64)

	// Depth 0: classes are degrees, numbered by first occurrence, so
	// the initial persistent ids coincide with the canonical ids.
	sub := make([]int32, r.maxDeg+1)
	for i := range sub {
		sub[i] = -1
	}
	k := 0
	for v := 0; v < n; v++ {
		d := r.off[v+1] - r.off[v]
		if sub[d] < 0 {
			sub[d] = int32(k)
			k++
		}
		r.class[v] = sub[d]
	}
	r.k = k
	r.nextID = int32(k)
	r.runStart = make([]int32, k)
	r.runEnd = make([]int32, k)
	cnt := make([]int32, k+1)
	for v := 0; v < n; v++ {
		cnt[r.class[v]+1]++
	}
	for c := 0; c < k; c++ {
		r.runStart[c] = cnt[c]
		cnt[c+1] += cnt[c]
		r.runEnd[c] = cnt[c+1]
	}
	pos := make([]int32, k)
	copy(pos, r.runStart)
	for v := 0; v < n; v++ {
		c := r.class[v]
		r.order[pos[c]] = int32(v)
		pos[c]++
	}

	// Every depth-0 class is newly created: the first Step must examine
	// everything, which is exactly the full first sweep Refiner does.
	r.frontier = make([]int32, k)
	for c := 0; c < k; c++ {
		r.frontier[c] = int32(c)
	}
	return r
}

// Depth returns the current refinement depth.
func (r *FrontierRefiner) Depth() int { return r.depth }

// NumClasses returns the number of classes at the current depth. It
// never triggers the canonical renumber, so the ElectionIndex loop
// stays O(frontier) per depth.
func (r *FrontierRefiner) NumClasses() int { return r.k }

// FrontierLen returns the number of classes created at the most recent
// Step (all classes at depth 0). It is zero exactly when the partition
// has reached its fixed point: classes only ever split, so a Step that
// splits nothing can never be followed by one that does.
func (r *FrontierRefiner) FrontierLen() int { return len(r.frontier) }

// ClassOf returns the class of node v at the current depth, in the
// canonical first-occurrence numbering.
func (r *FrontierRefiner) ClassOf(v int) int {
	r.canon()
	return int(r.canonOf[r.class[v]])
}

// Classes returns a fresh per-node class slice at the current depth,
// numbered by first occurrence in node order.
func (r *FrontierRefiner) Classes() []int {
	r.canon()
	out := make([]int, r.n)
	for v := 0; v < r.n; v++ {
		out[v] = int(r.canonOf[r.class[v]])
	}
	return out
}

// CopyClasses fills dst (grown as needed) with the per-node canonical
// classes at the current depth and returns it.
func (r *FrontierRefiner) CopyClasses(dst []int32) []int32 {
	r.canon()
	if cap(dst) < r.n {
		dst = make([]int32, r.n)
	}
	dst = dst[:r.n]
	for v := 0; v < r.n; v++ {
		dst[v] = r.canonOf[r.class[v]]
	}
	return dst
}

// Representative returns the smallest node id of canonical class c at
// the current depth: runs hold members ascending, so it is the first
// node of the class's run.
func (r *FrontierRefiner) Representative(c int) int {
	r.canon()
	return int(r.order[r.runStart[r.canonRep[c]]])
}

// Representatives returns, in class order, the smallest node id of each
// class at the current depth.
func (r *FrontierRefiner) Representatives() []int {
	r.canon()
	out := make([]int, r.k)
	for c := 0; c < r.k; c++ {
		out[c] = int(r.order[r.runStart[r.canonRep[c]]])
	}
	return out
}

// canon computes the canonical numbering for the current depth if the
// cache is stale: one pass over the nodes, first occurrence of each
// persistent id in node order. Accessors after a stable Step reuse the
// cache — the partition did not change, so neither did the numbering.
func (r *FrontierRefiner) canon() {
	if r.canonValid {
		return
	}
	if r.canonSeen == nil {
		r.canonSeen = make([]int32, r.nextID)
		r.canonOf = make([]int32, r.nextID)
		r.canonRep = make([]int32, r.n)
	}
	r.canonSeen = growInt32(r.canonSeen, int(r.nextID))
	r.canonOf = growInt32(r.canonOf, int(r.nextID))
	r.canonGen++
	gen := r.canonGen
	id := int32(0)
	for v := 0; v < r.n; v++ {
		p := r.class[v]
		if r.canonSeen[p] != gen {
			r.canonSeen[p] = gen
			r.canonOf[p] = id
			r.canonRep[id] = p
			id++
		}
	}
	r.canonValid = true
}

// Step advances refinement one depth under the frontier discipline.
// With an empty frontier the partition is at its fixed point and only
// the depth advances — exactly Refiner's behavior, which renumbers an
// unchanged partition to the unchanged numbering.
func (r *FrontierRefiner) Step() {
	r.depth++
	if len(r.frontier) == 0 {
		return
	}
	r.canonValid = false
	r.touch()
	if len(r.dirty) == 0 {
		r.frontier = r.frontier[:0]
		clear(r.touched)
		return
	}
	work := r.weight(r.dirty)
	r.split(work)
	r.apply(work)
	// Reset the touched bitmap for the next depth's marking. A plain
	// sequential memclr: per-run clearing inside splitRun would be a
	// data race (runs from different classes share bitmap words).
	clear(r.touched)
}

// weight is the edge work of the classes ids: every member counts one
// plus its degree, which all members of a class share.
func (r *FrontierRefiner) weight(ids []int32) int {
	w := 0
	for _, c := range ids {
		v0 := r.order[r.runStart[c]]
		w += int(r.runEnd[c]-r.runStart[c]) * (1 + int(r.off[v0+1]-r.off[v0]))
	}
	return w
}

// touch builds the dirty-class set: every non-singleton class holding a
// neighbor of a member of a frontier class. Workers claim classes with
// atomic fetch-or bits into per-worker lists; the merged discoveries
// are sorted by run start so everything downstream is deterministic.
func (r *FrontierRefiner) touch() {
	// Dense escape hatch. On small-diameter graphs (and the first depths
	// of every refinement) the frontier covers most of the graph, and the
	// two CAS sequences per scanned edge cost several times the work they
	// could ever save. When the frontier's edge weight reaches half the
	// graph's, mark every node touched and collect the dirty set — every
	// non-singleton class — with one ordered walk over the runs, which
	// arrives already sorted by run start.
	fw := r.weight(r.frontier)
	if 2*fw >= r.n+len(r.nbr) {
		for i := range r.touched {
			r.touched[i] = ^uint64(0)
		}
		r.dirty = r.dirty[:0]
		for p := 0; p < r.n; {
			c := r.class[r.order[p]]
			e := r.runEnd[c]
			if e-r.runStart[c] >= 2 {
				r.dirty = append(r.dirty, c)
			}
			p = int(e)
		}
		return
	}

	words := (int(r.nextID) + 63) / 64
	r.claimed = growUint64(r.claimed, words)

	// A worker may take several ranges, so its list is cleared here,
	// not per range.
	for _, wk := range r.ws {
		wk.dirty = wk.dirty[:0]
	}
	par.For(len(r.frontier), fw, r.workers, func(w, lo, hi int) {
		wk := r.ws[w]
		for _, p := range r.frontier[lo:hi] {
			for i := r.runStart[p]; i < r.runEnd[p]; i++ {
				u := r.order[i]
				for e := r.off[u]; e < r.off[u+1]; e++ {
					w := r.nbr[e]
					c := r.class[w]
					if r.runEnd[c]-r.runStart[c] < 2 {
						continue // singletons never split
					}
					// Mark the neighbor node: its key vector mentions
					// u's new id, so it changed. splitRun lumps the
					// unmarked members of a dirty class without
					// rehashing them. Same CAS spelling as below.
					tword, tbit := w>>6, uint64(1)<<(w&63)
					for {
						old := atomic.LoadUint64(&r.touched[tword])
						if old&tbit != 0 {
							break
						}
						if atomic.CompareAndSwapUint64(&r.touched[tword], old, old|tbit) {
							break
						}
					}
					// Fetch-or spelled as a CAS loop rather than the
					// value-returning atomic.OrUint64: the CAS winner is
					// the unique claimer, so each dirty class is appended
					// by exactly one worker.
					word, bit := c>>6, uint64(1)<<(c&63)
					for {
						old := atomic.LoadUint64(&r.claimed[word])
						if old&bit != 0 {
							break
						}
						if atomic.CompareAndSwapUint64(&r.claimed[word], old, old|bit) {
							wk.dirty = append(wk.dirty, c)
							break
						}
					}
				}
			}
		}
	})

	r.dirty = r.dirty[:0]
	for _, wk := range r.ws {
		r.dirty = append(r.dirty, wk.dirty...)
	}
	for _, c := range r.dirty {
		r.claimed[c>>6] = 0
	}
	sort.Slice(r.dirty, func(a, b int) bool {
		return r.runStart[r.dirty[a]] < r.runStart[r.dirty[b]]
	})
}

// split refines every dirty class's run in place by the same per-port
// counting passes as Refiner.Step, recording the subgroup count per
// class. Runs are disjoint ranges of order/grp/grp2/buf/bufG, so
// workers share those arrays without synchronization. work is the
// dirty classes' weight.
func (r *FrontierRefiner) split(work int) {
	r.parts = growInt32(r.parts, len(r.dirty))
	par.For(len(r.dirty), work, r.workers, func(w, lo, hi int) {
		wk := r.ws[w]
		for di := lo; di < hi; di++ {
			c := r.dirty[di]
			r.parts[di] = int32(wk.splitRun(r, int(r.runStart[c]), int(r.runEnd[c])))
		}
	})
}

// apply turns the recorded subgroups into classes: a sequential prefix
// pass over the dirty list assigns each class its block of new
// persistent ids and its slice of the next frontier, then a parallel
// pass carves the runs, relabels the moved members and writes the
// frontier entries — all into precomputed disjoint offsets, so the
// result is identical for every worker count.
func (r *FrontierRefiner) apply(work int) {
	nd := len(r.dirty)
	r.idBase = growInt32(r.idBase, nd)
	r.frontOff = growInt32(r.frontOff, nd)
	newIDs := int32(0)
	frontLen := int32(0)
	for di := 0; di < nd; di++ {
		r.idBase[di] = r.nextID + newIDs
		r.frontOff[di] = frontLen
		// Only the carved ids enter the next frontier: the retained
		// parent keeps its id, and keys read ids, so no neighbor's key
		// can change through it.
		if p := r.parts[di]; p > 1 {
			newIDs += p - 1
			frontLen += p - 1
		}
	}
	r.runStart = growInt32(r.runStart, int(r.nextID+newIDs))
	r.runEnd = growInt32(r.runEnd, int(r.nextID+newIDs))
	r.frontier2 = growInt32(r.frontier2, int(frontLen))

	par.For(nd, work, r.workers, func(_, lo, hi int) {
		for di := lo; di < hi; di++ {
			if r.parts[di] < 2 {
				continue
			}
			c := r.dirty[di]
			s, e := int(r.runStart[c]), int(r.runEnd[c])
			// The LARGEST part keeps the parent id (first wins ties) —
			// Hopcroft's move. A node re-enters the frontier only when
			// its class at least halves, so it is scanned O(log n)
			// times total; let the first part keep the id instead and a
			// giant class shedding a sliver every depth would push its
			// whole membership through the frontier every depth. Which
			// part keeps the id is invisible to consumers: canonical
			// numbering scans class[] directly.
			bigStart, bigEnd := s, s
			segStart := s
			for i := s + 1; i <= e; i++ {
				if i != e && r.grp[i] == r.grp[i-1] {
					continue
				}
				if i-segStart > bigEnd-bigStart {
					bigStart, bigEnd = segStart, i
				}
				segStart = i
			}
			base, fo := r.idBase[di], r.frontOff[di]
			nid := int32(0)
			segStart = s
			for i := s + 1; i <= e; i++ {
				if i != e && r.grp[i] == r.grp[i-1] {
					continue
				}
				if segStart == bigStart {
					r.runStart[c] = int32(segStart)
					r.runEnd[c] = int32(i)
				} else {
					id := base + nid
					nid++
					r.runStart[id] = int32(segStart)
					r.runEnd[id] = int32(i)
					for t := segStart; t < i; t++ {
						r.class[r.order[t]] = id
					}
					r.frontier2[fo] = id
					fo++
				}
				segStart = i
			}
		}
	})

	r.nextID += newIDs
	r.k += int(newIDs)
	r.frontier, r.frontier2 = r.frontier2[:frontLen], r.frontier[:0]
}

// splitRun refines the run order[s:e) (one class; equal degrees) by
// (neighbor class, remote port) per local port, with Refiner.Step's
// early exit once the run is fully discrete. It returns the subgroup
// count and leaves the subgroup runs contiguous in order[s:e) with grp
// holding the per-position subgroup ids.
//
// Members without the touched bit kept their entire key vector: no
// neighbor of theirs has a new id (ports never change), so their keys
// are equal exactly as before. A touched member's vector, by contrast,
// always differs from an untouched one's — at the port through which it
// was touched the touched member reads a carved id while the untouched
// member reads an id that existed before (had it read a carved id, its
// own bit would be set). The untouched block is therefore one final
// part, stably compacted to the front of the run with a single copy
// pass, and only the touched tail pays the per-port hashing.
func (wk *frontierWorker) splitRun(r *FrontierRefiner, s, e int) int {
	u := 0
	for i := s; i < e; i++ {
		v := r.order[i]
		if r.touched[v>>6]&(uint64(1)<<(uint32(v)&63)) == 0 {
			r.buf[s+u] = v
			u++
		}
	}
	if u > 0 && u < e-s {
		t := s + u
		for i := s; i < e; i++ {
			v := r.order[i]
			if r.touched[v>>6]&(uint64(1)<<(uint32(v)&63)) != 0 {
				r.buf[t] = v
				t++
			}
		}
		copy(r.order[s:e], r.buf[s:e])
	}
	s2 := s + u
	if s2 == e {
		// A dirty class always holds a touched member (that is what made
		// it dirty) — except at a fixed point reached mid-wave, where
		// claims can arrive from a sibling whose members were all carved
		// away. Nothing to refine.
		for i := s; i < e; i++ {
			r.grp[i] = -1
		}
		return 1
	}
	for i := s; i < s2; i++ {
		r.grp[i] = -1 // sentinel: never produced by the split passes
	}
	for i := s2; i < e; i++ {
		r.grp[i] = 0
	}
	v0 := r.order[s2]
	d := int(r.off[v0+1] - r.off[v0])
	wk.ensure(e-s2, r.maxDeg)
	nsub := 1
	for j := 0; j < d && nsub < e-s2; j++ {
		nsub = wk.splitByClass(r, s2, e, j)
		if nsub < e-s2 {
			nsub = wk.splitByPort(r, s2, e, j)
		}
	}
	if u > 0 {
		return nsub + 1
	}
	return nsub
}

// splitByClass refines the subgroups of order[lo:hi] by the persistent
// class of the neighbor behind local port j. It mirrors Refiner.splitBy
// byClass exactly — subgroups keep their members' relative order and
// new ids are assigned in first-occurrence order, so the grouping and
// the member order are identical (the key values differ, but grouping
// and first-occurrence structure depend only on key equality).
func (wk *frontierWorker) splitByClass(r *FrontierRefiner, lo, hi, j int) int {
	newN := int32(0)
	for a := lo; a < hi; {
		b := a + 1
		for b < hi && r.grp[b] == r.grp[a] {
			b++
		}
		if b-a == 1 {
			r.grp2[a] = newN
			newN++
			a = b
			continue
		}
		wk.stamp++
		base := newN
		for i := a; i < b; i++ {
			e := r.off[r.order[i]] + int32(j)
			kv := r.class[r.nbr[e]]
			h := uint32(kv) * 2654435761
			idx := int32(h^h>>16) & wk.mask
			for {
				if wk.slotStamp[idx] != wk.stamp {
					wk.slotStamp[idx] = wk.stamp
					wk.keys[idx] = kv
					wk.vals[idx] = newN
					newN++
					break
				}
				if wk.keys[idx] == kv {
					break
				}
				idx = (idx + 1) & wk.mask
			}
			r.grp2[i] = wk.vals[idx]
		}
		wk.scatter(r, a, b, int(base), int(newN))
		a = b
	}
	copy(r.grp[lo:hi], r.grp2[lo:hi])
	return int(newN)
}

// splitByPort refines the subgroups of order[lo:hi] by the remote port
// of local port j, through a dense stamped table bounded by the max
// degree.
func (wk *frontierWorker) splitByPort(r *FrontierRefiner, lo, hi, j int) int {
	newN := int32(0)
	for a := lo; a < hi; {
		b := a + 1
		for b < hi && r.grp[b] == r.grp[a] {
			b++
		}
		if b-a == 1 {
			r.grp2[a] = newN
			newN++
			a = b
			continue
		}
		wk.pstamp++
		base := newN
		for i := a; i < b; i++ {
			e := r.off[r.order[i]] + int32(j)
			kv := r.rp[e]
			if wk.pmark[kv] != wk.pstamp {
				wk.pmark[kv] = wk.pstamp
				wk.psub[kv] = newN
				newN++
			}
			r.grp2[i] = wk.psub[kv]
		}
		wk.scatter(r, a, b, int(base), int(newN))
		a = b
	}
	copy(r.grp[lo:hi], r.grp2[lo:hi])
	return int(newN)
}

// scatter stably reorders order[a:b] (and grp2 alongside) so that the
// subgroups base..newN-1 become contiguous, preserving member order
// within each subgroup — Refiner.splitBy's scatter on the shared
// position-indexed buffers.
func (wk *frontierWorker) scatter(r *FrontierRefiner, a, b, base, newN int) {
	if newN-base <= 1 {
		return
	}
	for t := 0; t < newN-base; t++ {
		wk.cnt[t] = 0
	}
	for i := a; i < b; i++ {
		wk.cnt[int(r.grp2[i])-base]++
	}
	sum := int32(a)
	for t := 0; t < newN-base; t++ {
		c := wk.cnt[t]
		wk.cnt[t] = sum
		sum += c
	}
	for i := a; i < b; i++ {
		t := int(r.grp2[i]) - base
		p := wk.cnt[t]
		wk.cnt[t]++
		r.buf[p] = r.order[i]
		r.bufG[p] = r.grp2[i]
	}
	copy(r.order[a:b], r.buf[a:b])
	copy(r.grp2[a:b], r.bufG[a:b])
}

// ensure sizes the worker's key table to hold run distinct keys at load
// factor <= 1/2 and the port table to the remote-port domain.
func (wk *frontierWorker) ensure(run, maxDeg int) {
	want := 16
	for want < 2*run {
		want <<= 1
	}
	if len(wk.slotStamp) < want || wk.stamp > 1<<30 {
		wk.keys = make([]int32, want)
		wk.vals = make([]int32, want)
		wk.slotStamp = make([]int32, want)
		wk.stamp = 0
		wk.mask = int32(want - 1)
	}
	if len(wk.pmark) < maxDeg+1 || wk.pstamp > 1<<30 {
		wk.pmark = make([]int32, maxDeg+1)
		wk.psub = make([]int32, maxDeg+1)
		wk.pstamp = 0
	}
	if len(wk.cnt) < run+1 {
		wk.cnt = make([]int32, run+1)
	}
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		t := make([]int32, n, n+n/2)
		copy(t, s)
		return t
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		t := make([]uint64, n, n+n/2)
		copy(t, s)
		return t
	}
	return s[:n]
}
