package advice

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// parallelDo covers [0, n) with calls fn(lo, hi) across GOMAXPROCS
// goroutines, work-stealing ranges of at most chunk indices off an
// atomic counter so uneven costs (trie sizes vary wildly between
// couples) still balance. With one processor it runs fn(0, n) inline
// on the caller — fn must accept ranges of any size. A panic in fn
// (BuildTrie panics on duplicate views) is captured and re-raised on
// the calling goroutine, matching the sequential oracle's behaviour.
func parallelDo(n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	workers := runtime.GOMAXPROCS(0)
	if w := (n + chunk - 1) / chunk; w < workers {
		workers = w
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = p
					}
					panicMu.Unlock()
				}
			}()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// sweepChunk sizes the chunks of the final label sweep: ~8 chunks per
// worker so stragglers (views whose labeling walks a deep trie) don't
// serialize the tail.
func sweepChunk(n int) int {
	c := n / (8 * runtime.GOMAXPROCS(0))
	if c < 64 {
		c = 64
	}
	return c
}

// sortParallel sorts s by cmp over GOMAXPROCS goroutines: contiguous
// runs are sorted concurrently, then merged pairwise, each round's
// merges running concurrently, through buf (at least as long as s).
// Keys must be distinct — the callers sort classes, whose canonical
// keys never tie — so the result is that of slices.SortFunc.
func sortParallel(s, buf []int32, cmp func(a, b int32) int) {
	runs := runtime.GOMAXPROCS(0)
	if len(s) < 1<<14 || runs < 2 {
		slices.SortFunc(s, cmp)
		return
	}
	width := (len(s) + runs - 1) / runs
	parallelDo(len(s), width, func(lo, hi int) { slices.SortFunc(s[lo:hi], cmp) })
	src, dst := s, buf[:len(s)]
	for ; width < len(s); width *= 2 {
		pairs := (len(s) + 2*width - 1) / (2 * width)
		parallelDo(pairs, 1, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				a := p * 2 * width
				m, b := min(a+width, len(s)), min(a+2*width, len(s))
				mergeRuns(dst[a:b], src[a:m], src[m:b], cmp)
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// mergeRuns merges the sorted runs x and y into dst.
func mergeRuns(dst, x, y []int32, cmp func(a, b int32) int) {
	i, j := 0, 0
	for k := range dst {
		if j == len(y) || (i < len(x) && cmp(x[i], y[j]) <= 0) {
			dst[k] = x[i]
			i++
		} else {
			dst[k] = y[j]
			j++
		}
	}
}
