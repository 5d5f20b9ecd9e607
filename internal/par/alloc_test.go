//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package par

import "testing"

// TestForInlineAllocs pins For's inline path to no allocation: a sweep
// that binds its loop body once per run pays nothing per round on small
// graphs.
func TestForInlineAllocs(t *testing.T) {
	sum := 0
	fn := func(_, lo, hi int) { sum += hi - lo }
	if allocs := testing.AllocsPerRun(100, func() { For(1000, minWork-1, 8, fn) }); allocs != 0 {
		t.Fatalf("For below minWork allocates %v times, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("fn never ran")
	}
}
