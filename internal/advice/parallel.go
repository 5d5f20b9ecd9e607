package advice

import (
	"runtime"
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
