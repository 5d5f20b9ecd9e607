// Package canon computes a canonical, relabel-invariant content address
// for anonymous port-labeled graphs — the cache key of the advice
// service (internal/serve, internal/store).
//
// The address must identify the *anonymous* graph: two graphs that
// differ only in their simulation node ids (graph.RelabelNodes) must
// hash identically, because the oracle's advice is itself a pure
// function of the anonymous structure (the invariant the metamorphic
// suite pins). A per-node port permutation, by contrast, changes the
// anonymous structure — views encode port numbers — so it legitimately
// changes the hash, exactly as it changes φ and the advice.
//
// Construction: partition refinement with *canonical* class numbering.
// The per-depth partitions of view equivalence are relabel-invariant as
// set systems; the only order-dependent artifact in internal/part is
// its first-occurrence class numbering. Here classes are numbered by
// relabel-invariant keys instead, by induction on depth:
//
//   - depth 0: a node's class is the rank of its degree among the
//     distinct degrees (sorted ascending);
//   - depth l+1: within each depth-l class (processed in canonical id
//     order), members are sorted lexicographically by their signature
//     (rp(v,0), canon(nbr(v,0)), rp(v,1), canon(nbr(v,1)), ...) — every
//     component relabel-invariant by induction — and runs of equal
//     signature become the new classes, numbered in that order.
//
// Refinement stops at the stable partition (the first depth where the
// class count stops growing; classes only ever split). The digest is
// SHA-256 over the canonical quotient at stability: per class in
// canonical order, its size and its per-port (remote port, neighbor
// class) row — well defined because stability means precisely that all
// members of a class share that row. On feasible graphs the stable
// partition is discrete, the quotient is the whole adjacency structure
// under a canonical node numbering, and the address is *complete*: two
// feasible graphs collide iff they are isomorphic as port-labeled
// graphs. On infeasible graphs (which the oracle rejects anyway) the
// address is still invariant, merely not injective.
package canon

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Sum is a 32-byte canonical content address of an anonymous graph.
type Sum [32]byte

// String returns the lowercase hex form, usable as a filename.
func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// ParseSum parses the hex form produced by String.
func ParseSum(s string) (Sum, error) {
	var out Sum
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(out) {
		return out, fmt.Errorf("canon: bad sum %q", s)
	}
	copy(out[:], b)
	return out, nil
}

// Hash returns the canonical content address of g.
func Hash(g *graph.Graph) Sum {
	s, _ := HashCtx(context.Background(), g)
	return s
}

// HashCtx is Hash with a cancellation checkpoint per refinement depth,
// so a per-request timeout bounds hashing adversarially deep graphs
// (a path graph refines for Θ(n) depths).
func HashCtx(ctx context.Context, g *graph.Graph) (Sum, error) {
	h := newHasher(g)
	for {
		if err := ctx.Err(); err != nil {
			return Sum{}, err
		}
		if !h.step() {
			return h.digest(), nil
		}
	}
}

// hasher carries the canonical refinement state.
type hasher struct {
	g     *graph.Graph
	canon []int32 // canonical class id per node
	k     int
	order []int32 // nodes grouped by class, classes in id order
	next  []int32 // scratch for the refined numbering
}

func newHasher(g *graph.Graph) *hasher {
	n := g.N()
	h := &hasher{g: g, canon: make([]int32, n), order: make([]int32, n), next: make([]int32, n)}
	// Depth 0: class = rank of degree among distinct degrees.
	degs := make([]int, 0, n)
	seen := map[int]bool{}
	for v := 0; v < n; v++ {
		if d := g.Deg(v); !seen[d] {
			seen[d] = true
			degs = append(degs, d)
		}
	}
	sort.Ints(degs)
	rank := make(map[int]int32, len(degs))
	for i, d := range degs {
		rank[d] = int32(i)
	}
	for v := 0; v < n; v++ {
		h.canon[v] = rank[g.Deg(v)]
	}
	h.k = len(degs)
	h.regroup()
	return h
}

// regroup rebuilds order from canon by counting sort.
func (h *hasher) regroup() {
	n := len(h.canon)
	cnt := make([]int32, h.k+1)
	for _, c := range h.canon {
		cnt[c+1]++
	}
	for c := 0; c < h.k; c++ {
		cnt[c+1] += cnt[c]
	}
	for v := 0; v < n; v++ {
		c := h.canon[v]
		h.order[cnt[c]] = int32(v)
		cnt[c]++
	}
}

// sigLess compares two same-degree nodes by their canonical signature.
func (h *hasher) sigLess(v, w int32) bool { return h.sigCmp(v, w) < 0 }

func (h *hasher) sigCmp(v, w int32) int {
	off, to, rport := h.g.CSR()
	a, b, d := off[v], off[w], off[v+1]-off[v]
	for p := int32(0); p < d; p++ {
		if rv, rw := rport[a+p], rport[b+p]; rv != rw {
			return int(rv - rw)
		}
		if cv, cw := h.canon[to[a+p]], h.canon[to[b+p]]; cv != cw {
			return int(cv - cw)
		}
	}
	return 0
}

// step refines one depth under canonical numbering and reports whether
// the partition is still splitting.
func (h *hasher) step() bool {
	n := len(h.canon)
	newK := 0
	for lo := 0; lo < n; {
		hi := lo + 1
		c := h.canon[h.order[lo]]
		for hi < n && h.canon[h.order[hi]] == c {
			hi++
		}
		members := h.order[lo:hi]
		if len(members) > 1 {
			sort.Slice(members, func(i, j int) bool { return h.sigLess(members[i], members[j]) })
		}
		h.next[members[0]] = int32(newK)
		for i := 1; i < len(members); i++ {
			if h.sigCmp(members[i-1], members[i]) != 0 {
				newK++
			}
			h.next[members[i]] = int32(newK)
		}
		newK++
		lo = hi
	}
	if newK == h.k {
		return false
	}
	copy(h.canon, h.next)
	h.k = newK
	h.regroup()
	return true
}

// digest hashes the canonical quotient at stability.
func (h *hasher) digest() Sum {
	g := h.g
	d := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	wr := func(x int) {
		d.Write(buf[:binary.PutUvarint(buf[:], uint64(x))])
	}
	d.Write([]byte("CANON1"))
	wr(g.N())
	wr(g.M())
	wr(h.k)
	n := len(h.canon)
	for lo := 0; lo < n; {
		hi := lo + 1
		c := h.canon[h.order[lo]]
		for hi < n && h.canon[h.order[hi]] == c {
			hi++
		}
		rep := int(h.order[lo])
		wr(hi - lo) // class size
		wr(g.Deg(rep))
		for p := 0; p < g.Deg(rep); p++ {
			e := g.At(rep, p)
			wr(e.RemotePort)
			wr(int(h.canon[e.To]))
		}
		lo = hi
	}
	var out Sum
	d.Sum(out[:0])
	return out
}
