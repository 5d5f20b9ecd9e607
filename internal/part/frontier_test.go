package part_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/part"
)

// frontierWorkerCounts is the worker sweep the differential suite runs
// under: the sequential path, a small pool, and an oversubscribed pool
// (more workers than this machine has cores), all of which must produce
// the exact same numbering. Run with -race to check the claim-bit and
// scatter phases for data races.
var frontierWorkerCounts = []int{1, 4, 8}

// TestFrontierMatchesRefiner is the differential contract of the
// frontier engine: on every family in the repository, for every worker
// count, FrontierRefiner is bit-identical to the reference Refiner at
// every depth — same class count, same first-occurrence numbering of
// every node, same minimal representatives, through stabilization and
// two depths beyond it.
func TestFrontierMatchesRefiner(t *testing.T) {
	for name, g := range testGraphs() {
		for _, workers := range frontierWorkerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				ref := part.NewRefiner(g)
				fr := part.NewFrontierRefiner(g, workers)
				stableFor := 0
				var refBuf, frBuf []int32
				for d := 0; ; d++ {
					if fr.Depth() != d || ref.Depth() != d {
						t.Fatalf("depth %d: Depth() = %d (refiner %d)", d, fr.Depth(), ref.Depth())
					}
					if fr.NumClasses() != ref.NumClasses() {
						t.Fatalf("depth %d: %d classes, refiner has %d", d, fr.NumClasses(), ref.NumClasses())
					}
					fc, rc := fr.Classes(), ref.Classes()
					for v := 0; v < g.N(); v++ {
						if fc[v] != rc[v] {
							t.Fatalf("depth %d: node %d in class %d, refiner says %d", d, v, fc[v], rc[v])
						}
						if fr.ClassOf(v) != fc[v] {
							t.Fatalf("depth %d: ClassOf(%d) = %d, Classes says %d", d, v, fr.ClassOf(v), fc[v])
						}
					}
					frBuf, refBuf = fr.CopyClasses(frBuf), ref.CopyClasses(refBuf)
					for v := 0; v < g.N(); v++ {
						if frBuf[v] != refBuf[v] || int(frBuf[v]) != fc[v] {
							t.Fatalf("depth %d: CopyClasses disagrees at node %d", d, v)
						}
					}
					frep, rrep := fr.Representatives(), ref.Representatives()
					if len(frep) != len(rrep) {
						t.Fatalf("depth %d: %d representatives, refiner has %d", d, len(frep), len(rrep))
					}
					for c := range frep {
						if frep[c] != rrep[c] {
							t.Fatalf("depth %d: class %d representative %d, refiner says %d", d, c, frep[c], rrep[c])
						}
						if fr.Representative(c) != frep[c] {
							t.Fatalf("depth %d: Representative(%d) = %d, Representatives says %d", d, c, fr.Representative(c), frep[c])
						}
					}
					kBefore := ref.NumClasses()
					ref.Step()
					fr.Step()
					if ref.NumClasses() == kBefore {
						stableFor++
						if stableFor == 2 {
							break
						}
					} else {
						stableFor = 0
					}
				}
			})
		}
	}
}

// TestFrontierEmptyIffStable is the worklist soundness property: after
// every Step, the frontier is empty exactly when the class count did
// not change — and once empty, it stays empty with the partition frozen
// forever (classes only ever split, so the first fixed point is final).
func TestFrontierEmptyIffStable(t *testing.T) {
	for name, g := range testGraphs() {
		for _, workers := range frontierWorkerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				fr := part.NewFrontierRefiner(g, workers)
				for d := 0; fr.FrontierLen() > 0; d++ {
					if d > g.N()+2 {
						t.Fatalf("no stabilization after %d depths", d)
					}
					kBefore := fr.NumClasses()
					fr.Step()
					split := fr.NumClasses() != kBefore
					if split != (fr.FrontierLen() > 0) {
						t.Fatalf("depth %d: classes %d -> %d but frontier length %d",
							d, kBefore, fr.NumClasses(), fr.FrontierLen())
					}
				}
				// Frozen: further steps only advance the depth.
				k, frozen := fr.NumClasses(), fr.CopyClasses(nil)
				for extra := 0; extra < 3; extra++ {
					fr.Step()
					if fr.FrontierLen() != 0 || fr.NumClasses() != k {
						t.Fatalf("partition moved after stabilization: %d classes, frontier %d",
							fr.NumClasses(), fr.FrontierLen())
					}
				}
				for v, c := range fr.CopyClasses(nil) {
					if c != frozen[v] {
						t.Fatalf("node %d changed class after stabilization", v)
					}
				}
			})
		}
	}
}

// TestFrontierStreamedLargeRandom is the differential check at a size
// where the parallel path actually engages (the steps' work passes
// par.For's inline cutoff) rather than running on the caller, on a
// directly built RandomConnected graph — the construction the large-n
// benchmarks use.
func TestFrontierStreamedLargeRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential sweep")
	}
	for _, seed := range []int64{1, 2} {
		g := graph.RandomConnected(9000, 4500, seed)
		ref := part.NewRefiner(g)
		fr := part.NewFrontierRefiner(g, 8)
		for {
			k := ref.NumClasses()
			ref.Step()
			fr.Step()
			if fr.NumClasses() != ref.NumClasses() {
				t.Fatalf("seed %d depth %d: %d classes, refiner has %d", seed, fr.Depth(), fr.NumClasses(), ref.NumClasses())
			}
			fc, rc := fr.Classes(), ref.Classes()
			for v := 0; v < g.N(); v++ {
				if fc[v] != rc[v] {
					t.Fatalf("seed %d depth %d: node %d class %d, refiner says %d", seed, fr.Depth(), v, fc[v], rc[v])
				}
			}
			if ref.NumClasses() == k {
				break
			}
		}
	}
}
