package sim

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// Forms of a correct election's outputs for treeOutputs.
const (
	formFresh  = iota // one slice per node
	formShared        // suffixes of one slab, as advice.PathToLeader shares them
	formMixed         // formShared with every other node copied out
	forms
)

// treeOutputs returns, for every node of g, the port sequence of its
// path to leader in the canonical BFS tree: a correct election's
// outputs, in the given form.
func treeOutputs(g *graph.Graph, leader, form int) [][]int {
	n := g.N()
	up := make([]graph.TreeEdge, n)
	hasChild := make([]bool, n)
	for _, e := range g.CanonicalBFSTree(leader) {
		up[e.Child] = e
		hasChild[e.Parent] = true
	}
	fresh := func(v int) []int {
		out := []int{}
		for cur := v; cur != leader; cur = up[cur].Parent {
			out = append(out, up[cur].PortChild, up[cur].PortParent)
		}
		return out
	}
	outs := make([][]int, n)
	if form == formFresh {
		for v := range outs {
			outs[v] = fresh(v)
		}
		return outs
	}
	// Write each leaf's path once; every node on it not yet given a path
	// takes the suffix that starts at its own pair.
	var slab []int
	start := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if v != leader && !hasChild[v] {
			start = append(start, len(slab))
			slab = append(slab, fresh(v)...)
		}
	}
	leaf := 0
	for v := 0; v < n; v++ {
		if v == leader || hasChild[v] {
			continue
		}
		pos, end := start[leaf], len(slab)
		if leaf+1 < len(start) {
			end = start[leaf+1]
		}
		leaf++
		for cur := v; cur != leader && outs[cur] == nil; cur = up[cur].Parent {
			outs[cur] = slab[pos:end]
			pos += 2
		}
	}
	outs[leader] = []int{}
	if form == formMixed {
		for v := 0; v < n; v += 2 {
			outs[v] = append([]int{}, outs[v]...)
		}
	}
	return outs
}

// mutate applies one corruption to outs, chosen by kind and placed by
// a and b; it reports whether it changed anything. Port changes write
// into the node's slice, and so into every output sharing it.
func mutate(g *graph.Graph, outs [][]int, leader int, kind, a, b byte) bool {
	n := len(outs)
	v := int(a) % n
	p := outs[v]
	switch kind % 9 {
	case 0, 1: // a departure or an arrival port
		if len(p) < 2 {
			return false
		}
		i := 2*(int(b)%(len(p)/2)) + int(kind%9)
		p[i] += 1 + int(b)%2
	case 2: // drop the last pair
		if len(p) < 2 {
			return false
		}
		outs[v] = p[:len(p)-2]
	case 3: // an odd length
		if len(p) > 0 {
			outs[v] = p[:len(p)-1]
		} else {
			outs[v] = []int{int(b) % 3}
		}
	case 4: // a second empty output
		if v == leader {
			return false
		}
		outs[v] = []int{}
	case 5:
		outs[v] = nil
	case 6, 7: // another node w of length len(p)−2: alias w to p[2:], or copy w's path behind p's first hop
		if len(p) < 2 {
			return false
		}
		for i := 0; i < n; i++ {
			w := (int(b) + i) % n
			if w == v || len(outs[w]) != len(p)-2 {
				continue
			}
			if kind%9 == 6 {
				outs[w] = p[2:]
			} else {
				outs[v] = append(slices.Clip(p[:2]), outs[w]...)
			}
			return true
		}
		return false
	case 8: // out and back over one edge, somewhere along the path
		i := 2 * (int(b) % (len(p)/2 + 1))
		nodes, err := g.FollowPath(v, p[:i])
		if err != nil {
			return false
		}
		w := nodes[len(nodes)-1]
		port := int(b) % g.Deg(w)
		back := g.PortBack(w, port)
		outs[v] = slices.Concat(p[:i], []int{port, back, back, port}, p[i:])
	}
	return true
}

// FuzzVerify pins Verify, whose suffix pass accepts before any walk, to
// verifyWalk: the same leader and the same error text on a correct
// election's outputs (fresh, shared or mixed) after up to three
// mutations, neither writing into the outputs; and every unmutated form
// accepted by the suffix pass itself.
func FuzzVerify(f *testing.F) {
	f.Add(uint8(10), uint8(4), int64(1), uint8(0), uint8(formShared), []byte{})
	f.Add(uint8(12), uint8(6), int64(2), uint8(3), uint8(formFresh), []byte{0, 4, 1})
	f.Add(uint8(9), uint8(3), int64(3), uint8(5), uint8(formMixed), []byte{6, 2, 7, 8, 1, 3})
	f.Add(uint8(14), uint8(8), int64(4), uint8(1), uint8(formShared), []byte{1, 5, 0, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(7), uint8(2), int64(5), uint8(2), uint8(formShared), []byte{4, 3, 0})
	f.Fuzz(func(t *testing.T, size, extra uint8, seed int64, leaderByte, form uint8, muts []byte) {
		n := 3 + int(size)%14
		g := graph.RandomConnected(n, int(extra)%n, seed)
		leader := int(leaderByte) % n
		outs := treeOutputs(g, leader, int(form)%forms)
		mutated := false
		for i := 0; i+2 < len(muts) && i < 9; i += 3 {
			mutated = mutate(g, outs, leader, muts[i], muts[i+1], muts[i+2]) || mutated
		}
		if !mutated {
			if l, ok := suffixLeader(g, outs); !ok || l != leader {
				t.Fatalf("suffix pass on a correct election (form %d): leader %d ok %v, want %d", form%forms, l, ok, leader)
			}
		}
		before := make([][]int, n)
		for v, p := range outs {
			if p != nil {
				before[v] = slices.Clone(p)
				if before[v] == nil {
					before[v] = []int{}
				}
			}
		}
		l1, err1 := Verify(g, outs)
		l2, err2 := verifyWalk(g, outs)
		if l1 != l2 || errText(err1) != errText(err2) {
			t.Fatalf("outputs %v: Verify (%d, %v), verifyWalk (%d, %v)", before, l1, err1, l2, err2)
		}
		for v, p := range outs {
			if (p == nil) != (before[v] == nil) || !slices.Equal(p, before[v]) {
				t.Fatalf("node %d output changed from %v to %v", v, before[v], p)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestVerifyTakesTheWalkOnLongWayRound pins Verify to the walk on a
// valid election that is not suffix-consistent: on a ring, node 1 goes
// the long way round through node 2, which goes back through node 1.
func TestVerifyTakesTheWalkOnLongWayRound(t *testing.T) {
	g := graph.Ring(12)
	outs := ringLongWay(t, g)
	if _, ok := suffixLeader(g, outs); ok {
		t.Fatal("suffix pass accepted node 1's long way round")
	}
	leader, err := Verify(g, outs)
	if err != nil || leader != 0 {
		t.Fatalf("Verify = (%d, %v), want leader 0", leader, err)
	}
}

// ringLongWay returns outputs electing node 0 on g, a ring, in which
// every node but 1 goes the short way and node 1 the long way round.
func ringLongWay(t *testing.T, g *graph.Graph) [][]int {
	t.Helper()
	n := g.N()
	outs := make([][]int, n)
	for v := 0; v < n; v++ {
		nodes := []int{v}
		for cur := v; cur != 0; nodes = append(nodes, cur) {
			if v <= n/2 {
				cur--
			} else {
				cur = (cur + 1) % n
			}
		}
		outs[v] = pathTo(t, g, nodes...)
		if outs[v] == nil {
			outs[v] = []int{}
		}
	}
	long := []int{1}
	for cur := 2; cur != 1; cur = (cur + 1) % n {
		long = append(long, cur)
	}
	outs[1] = pathTo(t, g, long...)
	return outs
}
