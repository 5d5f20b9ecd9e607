// Package part implements view-free partition refinement over anonymous
// port-labeled graphs.
//
// The election index φ(G), feasibility, the per-depth view classes and
// the stable (Yamashita–Kameda) partition only ever depend on the
// *partition* of nodes into view-equivalence classes at each depth, not
// on the views themselves: B^{l+1}(v) = B^{l+1}(w) iff deg(v) = deg(w)
// and, port by port, the remote port numbers agree and the neighbors
// behind equal ports have equal B^l views (Proposition 2.1). This
// package iterates exactly that recurrence on integer class ids — a
// Hopcroft/Paige–Tarjan-flavored refinement with counting-style bucket
// splits over reusable buffers — with zero view interning and zero
// hashing, O(n + m) per round.
//
// Equivalence invariant (pinned by TestPartMatchesViewRefinement): at
// every depth l, the classes computed here are bit-identical to
// numbering the interned views of view.Refinement by first occurrence
// in node order. Class c's representative is therefore the smallest
// node id in the class, and class ids are stable under extending the
// refinement (classes only ever split).
package part

import (
	"context"

	"repro/internal/graph"
)

// Refiner iterates synchronous partition refinement: depth 0 groups
// nodes by degree; each Step refines every class by the per-port
// (remote port, neighbor class) signature. Classes are numbered by
// first occurrence in node order at every depth. All scratch memory is
// allocated once in NewRefiner and reused across steps.
type Refiner struct {
	n int

	// g's CSR (graph.Graph.CSR), read only: the half-edges of node v
	// are positions off[v] .. off[v+1]-1 of nbr (neighbor id) and rp
	// (remote port).
	off []int32
	nbr []int32
	rp  []int32

	class []int32 // class[v] at the current depth
	next  []int32 // provisional refined class per node (scratch)
	k     int     // number of classes at the current depth
	depth int

	// order holds the nodes grouped contiguously by class, classes in
	// id order, nodes ascending within a class; start[c] is class c's
	// offset in order (len k+1 in use).
	order []int32
	start []int32

	// Split scratch. mark/subID are stamp-guarded sparse maps from a
	// key value (a class id or a remote port, both < n) to "seen this
	// split" and the subgroup it opened; cnt holds per-subgroup
	// counters; grp/grp2 carry the subgroup id of each member position
	// of order; buf/bufG are the stable-scatter targets.
	mark  []int
	subID []int32
	stamp int
	cnt   []int32
	grp   []int32
	grp2  []int32
	buf   []int32
	bufG  []int32
	ren   []int32 // provisional id → first-occurrence class id
}

// NewRefiner starts refinement of g at depth 0 (classes = degrees,
// numbered by first occurrence).
func NewRefiner(g *graph.Graph) *Refiner {
	n := g.N()
	r := &Refiner{n: n}
	r.off, r.nbr, r.rp = g.CSR()
	r.class = make([]int32, n)
	r.next = make([]int32, n)
	r.order = make([]int32, n)
	r.start = make([]int32, n+2)
	r.mark = make([]int, n+1)
	r.subID = make([]int32, n+1)
	r.cnt = make([]int32, n+1)
	r.grp = make([]int32, n)
	r.grp2 = make([]int32, n)
	r.buf = make([]int32, n)
	r.bufG = make([]int32, n)
	r.ren = make([]int32, n+1)

	// Depth 0: classes are degrees, numbered by first occurrence.
	r.stamp++
	k := 0
	for v := 0; v < n; v++ {
		d := int(r.off[v+1] - r.off[v])
		if r.mark[d] != r.stamp {
			r.mark[d] = r.stamp
			r.subID[d] = int32(k)
			k++
		}
		r.class[v] = r.subID[d]
	}
	r.k = k
	r.regroup()
	return r
}

// Depth returns the current refinement depth.
func (r *Refiner) Depth() int { return r.depth }

// NumClasses returns the number of classes at the current depth — the
// number of distinct depth-l views.
func (r *Refiner) NumClasses() int { return r.k }

// ClassOf returns the class of node v at the current depth.
func (r *Refiner) ClassOf(v int) int { return int(r.class[v]) }

// Classes returns a fresh per-node class slice at the current depth,
// numbered by first occurrence in node order.
func (r *Refiner) Classes() []int {
	out := make([]int, r.n)
	for v := 0; v < r.n; v++ {
		out[v] = int(r.class[v])
	}
	return out
}

// Representatives returns, in class order, the smallest node id of each
// class at the current depth. Because classes are numbered by first
// occurrence, Representatives()[c] is the first node of class c.
func (r *Refiner) Representatives() []int {
	out := make([]int, r.k)
	for c := 0; c < r.k; c++ {
		out[c] = int(r.order[r.start[c]])
	}
	return out
}

// Representative returns the smallest node id of class c at the current
// depth, in O(1) and without allocating — the per-round form of
// Representatives for engines that pump Step incrementally.
func (r *Refiner) Representative(c int) int { return int(r.order[r.start[c]]) }

// CopyClasses fills dst (grown as needed) with the per-node classes at
// the current depth and returns it. It is Classes with a caller-owned
// buffer, so an engine stepping the refiner once per round can trace the
// class history without per-round allocation.
func (r *Refiner) CopyClasses(dst []int32) []int32 {
	if cap(dst) < r.n {
		dst = make([]int32, r.n)
	}
	dst = dst[:r.n]
	copy(dst, r.class)
	return dst
}

// regroup rebuilds order/start from class by counting sort, so nodes of
// a class are contiguous and ascend by id.
func (r *Refiner) regroup() {
	for c := 0; c <= r.k; c++ {
		r.start[c] = 0
	}
	for v := 0; v < r.n; v++ {
		r.start[r.class[v]+1]++
	}
	for c := 0; c < r.k; c++ {
		r.start[c+1] += r.start[c]
	}
	copy(r.cnt[:r.k], r.start[:r.k])
	for v := 0; v < r.n; v++ {
		c := r.class[v]
		r.order[r.cnt[c]] = int32(v)
		r.cnt[c]++
	}
}

// Step advances refinement one depth. Within a class all nodes have
// equal degree (degree differences split at depth 0 and classes only
// split thereafter), so the class is refined position by position: for
// each local port j, first by the neighbor's class, then by the remote
// port number. Splitting by the two components in sequence yields the
// same grouping as splitting by the pair.
func (r *Refiner) Step() {
	prov := 0 // provisional subgroup counter, globally unique this step
	for c := 0; c < r.k; c++ {
		lo, hi := int(r.start[c]), int(r.start[c+1])
		if hi-lo == 1 {
			r.next[r.order[lo]] = int32(prov)
			prov++
			continue
		}
		v0 := r.order[lo]
		d := int(r.off[v0+1] - r.off[v0])
		for i := lo; i < hi; i++ {
			r.grp[i] = 0
		}
		nsub := 1
		for j := 0; j < d && nsub < hi-lo; j++ {
			nsub = r.splitBy(lo, hi, j, true)
			if nsub < hi-lo {
				nsub = r.splitBy(lo, hi, j, false)
			}
		}
		for i := lo; i < hi; i++ {
			if i > lo && r.grp[i] != r.grp[i-1] {
				prov++
			}
			r.next[r.order[i]] = int32(prov)
		}
		prov++
	}

	// Renumber provisional subgroups by first occurrence in node order
	// and regroup for the next step.
	for p := 0; p < prov; p++ {
		r.ren[p] = -1
	}
	newK := 0
	for v := 0; v < r.n; v++ {
		p := r.next[v]
		if r.ren[p] < 0 {
			r.ren[p] = int32(newK)
			newK++
		}
		r.class[v] = r.ren[p]
	}
	r.k = newK
	r.depth++
	r.regroup()
}

// splitBy refines the subgroups of order[lo:hi] (contiguous runs of
// equal grp value) by one key of local port j: the neighbor's current
// class if byClass, else the remote port. It returns the new subgroup
// count for the class. Subgroups keep their members' relative order
// (stable), and new subgroup ids are assigned in first-occurrence
// order, so the result is deterministic.
func (r *Refiner) splitBy(lo, hi, j int, byClass bool) int {
	newN := 0
	for a := lo; a < hi; {
		b := a + 1
		for b < hi && r.grp[b] == r.grp[a] {
			b++
		}
		if b-a == 1 {
			r.grp2[a] = int32(newN)
			newN++
			a = b
			continue
		}
		r.stamp++
		base := newN
		for i := a; i < b; i++ {
			e := r.off[r.order[i]] + int32(j)
			var kv int32
			if byClass {
				kv = r.class[r.nbr[e]]
			} else {
				kv = r.rp[e]
			}
			if r.mark[kv] != r.stamp {
				r.mark[kv] = r.stamp
				r.subID[kv] = int32(newN)
				newN++
			}
			r.grp2[i] = r.subID[kv]
		}
		if newN-base > 1 {
			// Stable scatter of the run so each subgroup is contiguous.
			for t := 0; t < newN-base; t++ {
				r.cnt[t] = 0
			}
			for i := a; i < b; i++ {
				r.cnt[int(r.grp2[i])-base]++
			}
			sum := int32(a)
			for t := 0; t < newN-base; t++ {
				c := r.cnt[t]
				r.cnt[t] = sum
				sum += c
			}
			for i := a; i < b; i++ {
				t := int(r.grp2[i]) - base
				p := r.cnt[t]
				r.cnt[t]++
				r.buf[p] = r.order[i]
				r.bufG[p] = r.grp2[i]
			}
			copy(r.order[a:b], r.buf[a:b])
			copy(r.grp2[a:b], r.bufG[a:b])
		}
		a = b
	}
	copy(r.grp[lo:hi], r.grp2[lo:hi])
	return newN
}

// ElectionIndex returns the election index φ(g) and feasible = true, or
// (0, false) if the refinement stabilizes before becoming discrete.
// The stopping rules mirror view.ElectionIndex exactly: the class count
// is non-decreasing, the first depth with n classes is φ, and the first
// repeat means the partition is stable forever.
func ElectionIndex(g *graph.Graph) (phi int, feasible bool) {
	phi, feasible, _ = ElectionIndexCtx(context.Background(), g)
	return phi, feasible
}

// ElectionIndexCtx is ElectionIndex with a cancellation checkpoint per
// refinement depth, so a per-request timeout bounds the Θ(n)-depth
// worst cases (paths, long rings) instead of running them to the end.
func ElectionIndexCtx(ctx context.Context, g *graph.Graph) (phi int, feasible bool, err error) {
	n := g.N()
	if n == 1 {
		return 0, true, nil
	}
	// The frontier refiner makes this loop O(active frontier) per depth
	// instead of O(n+m): the class count is all the loop watches, and
	// NumClasses never triggers the canonical renumber.
	r := NewFrontierRefiner(g, 0)
	count := r.k
	for {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		r.Step()
		if r.k == n {
			return r.depth, true, nil
		}
		if r.k == count {
			return 0, false, nil
		}
		count = r.k
	}
}

// Feasible reports whether leader election is possible in g when nodes
// know the map (all views distinct at some depth).
func Feasible(g *graph.Graph) bool {
	_, ok := ElectionIndex(g)
	return ok
}

// Classes returns the per-node view classes at the given depth, numbered
// by first occurrence — bit-identical to view.Classes.
func Classes(g *graph.Graph, depth int) []int {
	r := NewFrontierRefiner(g, 0)
	for l := 0; l < depth; l++ {
		r.Step()
	}
	return r.Classes()
}

// StablePartition refines until the partition stabilizes, returning the
// per-node classes and the depth at which stability was reached —
// bit-identical to view.StablePartition.
func StablePartition(g *graph.Graph) (classes []int, depth int) {
	classes, depth, _ = StablePartitionCtx(context.Background(), g)
	return classes, depth
}

// StablePartitionCtx is StablePartition with a cancellation checkpoint
// per refinement depth.
func StablePartitionCtx(ctx context.Context, g *graph.Graph) (classes []int, depth int, err error) {
	n := g.N()
	r := NewFrontierRefiner(g, 0)
	count := r.k
	var prev []int32
	prev = r.CopyClasses(prev)
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		r.Step()
		if r.k == count {
			out := make([]int, n)
			for v := range out {
				out[v] = int(prev[v])
			}
			return out, r.depth - 1, nil
		}
		count = r.k
		prev = r.CopyClasses(prev)
	}
}

// ElectionTrace computes φ(g) like ElectionIndex while also collecting,
// for every depth 0..φ, the class representatives (smallest node id per
// class, in class order). The oracle uses the trace to enumerate the
// distinct views of each depth without re-deriving them from interned
// views. reps is nil when g is infeasible.
func ElectionTrace(g *graph.Graph) (phi int, reps [][]int, feasible bool) {
	n := g.N()
	if n == 1 {
		return 0, [][]int{{0}}, true
	}
	r := NewFrontierRefiner(g, 0)
	count := r.k
	reps = append(reps, r.Representatives())
	for {
		r.Step()
		reps = append(reps, r.Representatives())
		if r.k == n {
			return r.depth, reps, true
		}
		if r.k == count {
			return 0, nil, false
		}
		count = r.k
	}
}
