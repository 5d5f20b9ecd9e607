package view

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestCollisionBuckets forces every structural hash to collide and
// checks that the overflow buckets still intern correctly: equal
// structures dedupe to one pointer, distinct structures stay distinct.
func TestCollisionBuckets(t *testing.T) {
	tb := NewTable()
	tb.hashHook = func(depth, deg int, edges []Edge) uint64 { return 0xdead }
	leaves := make([]*View, 10)
	for d := 0; d < 10; d++ {
		leaves[d] = tb.Leaf(d + 1)
	}
	for d := 0; d < 10; d++ {
		if tb.Leaf(d+1) != leaves[d] {
			t.Fatalf("leaf deg %d did not dedupe under forced collisions", d+1)
		}
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < i; j++ {
			if leaves[i] == leaves[j] {
				t.Fatalf("distinct leaves %d and %d merged under forced collisions", i, j)
			}
		}
	}
	// Depth-1 views: all collide too, including with the leaves.
	a := tb.Make([]Edge{{RemotePort: 0, Child: leaves[0]}})
	b := tb.Make([]Edge{{RemotePort: 1, Child: leaves[0]}})
	c := tb.Make([]Edge{{RemotePort: 0, Child: leaves[1]}})
	if a == b || a == c || b == c {
		t.Fatal("distinct depth-1 views merged under forced collisions")
	}
	if tb.Make([]Edge{{RemotePort: 0, Child: leaves[0]}}) != a {
		t.Fatal("equal depth-1 view did not dedupe under forced collisions")
	}
	if got, want := tb.Size(), 13; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	// Compare still realizes the canonical order with everything in one
	// bucket (ranking walks the shard registries, not the buckets).
	if tb.Compare(a, b) >= 0 || tb.Compare(b, a) <= 0 || tb.Compare(a, c) >= 0 {
		t.Fatal("canonical order wrong under forced collisions")
	}
}

// TestConcurrentIntern hammers one table from many goroutines that
// intern overlapping view structures and compare them; run with -race.
// All goroutines must agree on the interned pointers.
func TestConcurrentIntern(t *testing.T) {
	tb := NewTable()
	const workers = 16
	const degs = 6
	const depths = 5
	results := make([][]*View, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Build a deterministic lattice of views plus random probes.
			var mine []*View
			leaves := make([]*View, degs)
			for d := range leaves {
				leaves[d] = tb.Leaf(d + 1)
			}
			cur := leaves
			for depth := 1; depth <= depths; depth++ {
				next := make([]*View, len(cur))
				for i, child := range cur {
					next[i] = tb.Make([]Edge{
						{RemotePort: i % 2, Child: child},
						{RemotePort: 1 - i%2, Child: cur[(i+1)%len(cur)]},
					})
				}
				cur = next
				mine = append(mine, cur...)
			}
			// Interleave compares (exercising rank passes) with interning.
			for i := 0; i < 200; i++ {
				x := mine[rng.Intn(len(mine))]
				y := mine[rng.Intn(len(mine))]
				got := tb.Compare(x, y)
				if (got == 0) != (x == y) {
					t.Errorf("Compare equality mismatch")
					return
				}
				if got != -tb.Compare(y, x) {
					t.Errorf("Compare antisymmetry violated")
					return
				}
				if x.Depth > 0 {
					tb.Truncate(x)
				}
			}
			results[w] = append(leaves, mine...)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatalf("worker %d interned %d views, worker 0 interned %d", w, len(results[w]), len(results[0]))
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d and worker 0 disagree on interned view %d", w, i)
			}
		}
	}
}

// referenceCompare is the original recursive definition of the canonical
// order (degree, then remote ports, then children recursively), kept
// here as the specification that the rank-based Compare must match.
func referenceCompare(a, b *View) int {
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
		ea, eb := a.Edges[i], b.Edges[i]
		if ea.RemotePort != eb.RemotePort {
			if ea.RemotePort < eb.RemotePort {
				return -1
			}
			return 1
		}
	}
	for i := range a.Edges {
		if c := referenceCompare(a.Edges[i].Child, b.Edges[i].Child); c != 0 {
			return c
		}
	}
	return 0
}

// TestRanksMatchReferenceCompare checks, over random graphs, that the
// canonical ranks order every pair of views exactly as the recursive
// definition does — including pairs that span graphs and pairs compared
// before and after later interning extends the rank space.
func TestRanksMatchReferenceCompare(t *testing.T) {
	tb := NewTable()
	var pool []*View
	check := func() {
		for i := 0; i < len(pool); i++ {
			for j := 0; j < len(pool); j++ {
				got := tb.Compare(pool[i], pool[j])
				want := referenceCompare(pool[i], pool[j])
				if got != want {
					t.Fatalf("Compare(%d,%d) = %d, reference = %d (depths %d,%d)",
						i, j, got, want, pool[i].Depth, pool[j].Depth)
				}
			}
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		n := 8 + int(seed)*7
		g := graph.RandomConnected(n, n/2, seed)
		for _, lvl := range Levels(tb, g, 4) {
			pool = append(pool, lvl...)
		}
		// Compare everything now, then again after the next graph has
		// interned more views (forcing fresh rank generations): the
		// order of previously ranked pairs must be stable.
		check()
	}
	check()
}

// TestOfMatchesLevels checks that the ball-restricted single-node view
// computation agrees with the all-nodes computation.
func TestOfMatchesLevels(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		n := 10 + int(seed)*9
		g := graph.RandomConnected(n, n/3, seed)
		tb := NewTable()
		for depth := 0; depth <= 4; depth++ {
			levels := Levels(tb, g, depth)
			for v := 0; v < g.N(); v += 3 {
				if got := Of(tb, g, v, depth); got != levels[depth][v] {
					t.Fatalf("Of(seed %d, node %d, depth %d) disagrees with Levels", seed, v, depth)
				}
			}
		}
	}
}

// TestRefinementMatchesLevels checks the iterator against Levels and the
// documented buffer-ownership contract.
func TestRefinementMatchesLevels(t *testing.T) {
	g := graph.RandomConnected(20, 10, 3)
	tb := NewTable()
	levels := Levels(tb, g, 5)
	r := NewRefinement(tb, g)
	for l := 0; l <= 5; l++ {
		if l > 0 {
			r.Step()
		}
		if r.Depth() != l {
			t.Fatalf("Depth = %d, want %d", r.Depth(), l)
		}
		if r.Distinct() != distinctCount(levels[l]) {
			t.Fatalf("Distinct at level %d = %d, want %d", l, r.Distinct(), distinctCount(levels[l]))
		}
		for v, want := range levels[l] {
			if r.Views()[v] != want {
				t.Fatalf("Views()[%d] at level %d disagrees with Levels", v, l)
			}
		}
	}
}

// TestSlabRowsDoNotAlias forces every view into one shard, so that its
// slabs fill up and are replaced several times, and checks that the edge
// rows carved out of shared slabs alias neither each other nor the
// caller's slice.
func TestSlabRowsDoNotAlias(t *testing.T) {
	tb := NewTable()
	tb.hashHook = func(depth, deg int, edges []Edge) uint64 {
		return hashView(depth, deg, edges) &^ (numShards - 1)
	}
	leaf := tb.Leaf(1)
	// Rows of 2 to 4 edges whose first two remote ports spell the row
	// index, so every row is a distinct view; one row is longer than a
	// whole edge slab.
	const count = 3 * maxSlabViews
	rowOf := func(i int) []Edge {
		deg := 2 + i%3
		if i == count/2 {
			deg = maxSlabEdges + 1
		}
		row := make([]Edge, deg)
		for p := range row {
			row[p] = Edge{Child: leaf}
		}
		row[0].RemotePort, row[1].RemotePort = i%64, i/64
		return row
	}
	var buf []Edge // one caller slice, overwritten before every Make
	views := make([]*View, count)
	edges := 0
	for i := range views {
		buf = append(buf[:0], rowOf(i)...)
		views[i] = tb.Make(buf)
		edges += len(buf)
		for p := range buf {
			buf[p] = Edge{RemotePort: -1, Child: leaf}
		}
	}
	if edges <= 2*maxSlabEdges || count <= 2*maxSlabViews {
		t.Fatalf("%d views with %d edges do not overflow a full slab", count, edges)
	}
	if got := len(tb.shards[0].byDepth[1]); got != count {
		t.Fatalf("shard 0 holds %d depth-1 views, want all %d", got, count)
	}
	for i, v := range views {
		if cap(v.Edges) != len(v.Edges) {
			t.Fatalf("view %d: cap(Edges) = %d, len = %d", i, cap(v.Edges), len(v.Edges))
		}
		// Appending to a row must reallocate, never write into the slab.
		_ = append(v.Edges, Edge{RemotePort: -2, Child: leaf})
	}
	for i, v := range views {
		want := rowOf(i)
		if len(v.Edges) != len(want) || v.Deg != len(want) {
			t.Fatalf("view %d has %d edges, want %d", i, len(v.Edges), len(want))
		}
		for p := range want {
			if v.Edges[p] != want[p] {
				t.Fatalf("view %d port %d = %+v, want %+v", i, p, v.Edges[p], want[p])
			}
		}
		if tb.Make(want) != v {
			t.Fatalf("view %d did not dedupe against its own edges", i)
		}
	}
}
