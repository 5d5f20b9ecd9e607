//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package trie

import "testing"

// TestRowsBuildAllocs pins the class-row builder to a constant number
// of allocations, whatever the group size: with the trie and scratch
// supplied by the caller it allocates nothing, so an oracle level
// carves all its tries out of one arena.
func TestRowsBuildAllocs(t *testing.T) {
	for _, size := range []int{2, 64, 1024} {
		// size classes with the distinct rows (i/8, i%8), over child
		// classes ranked and labeled in order.
		r := Rows{Off: make([]int32, size+1), Rank: make([]int32, size), Label: make([]int32, size)}
		for i := 0; i < size; i++ {
			r.Child = append(r.Child, int32(i/8), int32(i%8))
			r.Off[i+1] = int32(len(r.Child))
			r.Rank[i], r.Label[i] = int32(i), int32(i+1)
		}
		members := make([]int32, size)
		scratch, rank := make([]int32, size), make([]int32, size)
		dst := make(Trie, 2*size-1)
		got := testing.AllocsPerRun(5, func() {
			for i := range members {
				members[i] = int32(i)
			}
			r.Build(dst, members, scratch, rank)
		})
		if got != 0 {
			t.Errorf("Rows.Build over %d classes allocates %v times, want 0", size, got)
		}
		if dst.Leaves() != size {
			t.Errorf("trie over %d classes has %d leaves", size, dst.Leaves())
		}
	}
}
