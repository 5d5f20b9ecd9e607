//go:build !race

// Large-n smoke: the election index at n = 1M must complete well inside
// a CI time budget — the frontier-refinement acceptance gate. Excluded
// from -race builds (the detector's ~10x slowdown on a million-node
// refinement would measure the detector, not the engine) and from
// -short runs; CI runs it in a dedicated job.

package election

import (
	"testing"
	"time"
)

func TestElectionIndexScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n smoke; run without -short")
	}
	const ceiling = 90 * time.Second
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		// Small diameter, phi = O(log n): stresses the dense depths.
		{"random-n1000000", RandomConnected(1_000_000, 500_000, 1)},
		// Large diameter, phi = Theta(sqrt(n)): stresses the thin-wave
		// frontier discipline — a full sweep per depth would blow the
		// ceiling by an order of magnitude.
		{"sqgrid-n1000000", Grid(1000, 1000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			phi, feasible := NewSystem().ElectionIndex(tc.g)
			elapsed := time.Since(start)
			if !feasible {
				t.Fatalf("%s should be feasible", tc.name)
			}
			if phi < 1 {
				t.Fatalf("phi = %d, want >= 1", phi)
			}
			t.Logf("phi=%d in %v", phi, elapsed)
			if elapsed > ceiling {
				t.Fatalf("ElectionIndex took %v, ceiling %v", elapsed, ceiling)
			}
		})
	}
}
