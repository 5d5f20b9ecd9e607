//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package bits

import "testing"

// TestConcatAllocs pins Concat and ConcatInts to one allocation each:
// the output length is computed first and the writer's buffer is
// returned without a copy.
func TestConcatAllocs(t *testing.T) {
	parts := []String{New("0110"), {}, Bin(1 << 20), New("1")}
	xs := []int{0, 1, 2, 1 << 40, 77}
	if got := testing.AllocsPerRun(100, func() { _ = Concat(parts...) }); got != 1 {
		t.Errorf("Concat allocates %v times, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = ConcatInts(xs...) }); got != 1 {
		t.Errorf("ConcatInts allocates %v times, want 1", got)
	}
}
