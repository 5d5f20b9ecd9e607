//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package view

import (
	"testing"

	"repro/internal/graph"
)

// TestEnsureRankedAllocs checks that a rank pass over a table that has
// not changed since the last pass copies nothing.
func TestEnsureRankedAllocs(t *testing.T) {
	tb := NewTable()
	levels := Levels(tb, graph.RandomConnected(200, 100, 1), 4)
	top := levels[4]
	tb.Sort(append([]*View(nil), top...))
	if got := testing.AllocsPerRun(100, func() { tb.ensureRanked(4) }); got != 0 {
		t.Fatalf("ensureRanked on an unchanged table allocates %v times, want 0", got)
	}
}

// TestInternAllocs checks that interning carves views and edge rows out
// of per-shard slabs: 100k fresh views cost under 0.1 allocations each,
// where one heap object per view and one per edge row cost 2.
func TestInternAllocs(t *testing.T) {
	const count = 100_000
	allocs := testing.AllocsPerRun(1, func() {
		tb := NewTable()
		leaf := tb.Leaf(2)
		var row [2]Edge
		for i := 0; i < count; i++ {
			row[0] = Edge{RemotePort: i % 512, Child: leaf}
			row[1] = Edge{RemotePort: i / 512, Child: leaf}
			tb.Make(row[:])
		}
		if tb.Size() != count+1 {
			t.Fatalf("interned %d views, want %d", tb.Size(), count+1)
		}
	})
	if perView := allocs / count; perView >= 0.1 {
		t.Fatalf("interning costs %.3f allocations per view, want < 0.1", perView)
	}
}

// TestEncodeDepth1Allocs pins a depth-1 encoding to one allocation: the
// exact bit length is computed before the buffer is allocated.
func TestEncodeDepth1Allocs(t *testing.T) {
	tb := NewTable()
	g := graph.RandomConnected(50, 200, 3)
	for _, v := range Levels(tb, g, 1)[1][:10] {
		if got := testing.AllocsPerRun(100, func() { _ = EncodeDepth1(v) }); got != 1 {
			t.Fatalf("EncodeDepth1 of a degree-%d view allocates %v times, want 1", v.Deg, got)
		}
	}
}
