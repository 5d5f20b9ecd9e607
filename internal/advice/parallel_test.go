package advice

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestSortParallelMatchesSort checks the worker-pool sort against
// slices.SortFunc on inputs large enough to take the parallel path,
// for worker counts that split them into uneven runs (run with -race).
func TestSortParallelMatchesSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(1))
	byValue := func(a, b int32) int { return cmp.Compare(a, b) }
	for _, procs := range []int{1, 2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{100, 1 << 14, 1<<15 + 7} {
			s := make([]int32, n)
			for i, v := range rng.Perm(n) {
				s[i] = int32(v)
			}
			want := slices.Clone(s)
			slices.SortFunc(want, byValue)
			sortParallel(s, make([]int32, n), byValue)
			if !slices.Equal(s, want) {
				t.Fatalf("GOMAXPROCS %d, n %d: sortParallel differs from slices.SortFunc", procs, n)
			}
		}
	}
}
