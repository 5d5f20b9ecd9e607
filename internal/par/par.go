// Package par is the one data-parallel loop of the determinism-critical
// packages: the oracle's per-depth class loops (internal/advice), the
// frontier refiner's touch, split and apply (internal/part) and the BSP
// engine's per-round node sweep (internal/sim) all fan out through For.
//
// Schedule. Which goroutine runs a range, and in what order the ranges
// run, changes from call to call. A caller's result must not depend on
// either, so every fn either writes only the indices of its own range
// (disjoint by construction: the sweeps, the refiner's split and apply)
// or collects into per-w scratch that the caller merges in an order of
// its own once For has returned (the refiner's touch sorts the merged
// dirty classes by run start). That is why outputs, and the refiner's
// class numbering, are the same for every worker count.
//
// Panics. A panic in fn ends that goroutine's share of the loop; the
// other goroutines finish theirs, and For re-raises the first panic on
// the caller once every goroutine has returned, so a caller's recover
// sees it as it would from a loop of its own and no goroutine outlives
// the call.
//
// Cost. A loop is worth goroutines when the work it does outweighs
// waking them: each caller passes an estimate it already has (a node or
// class count, or the refiner's edge weight), and below minWork the
// whole loop runs on the caller and For allocates nothing.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minWork is the work estimate below which For stays on the caller. A
// unit is one node or class of a sweep, or one member times its degree
// plus one in the refiner. At 2048 the label election on grids of up to
// about 1,600 nodes stays inline, while a 3,000-node path fans out.
const minWork = 2048

// Workers returns workers, or GOMAXPROCS when workers <= 0: the most
// goroutines For may use, and so the number of per-goroutine scratch
// slots a caller needs.
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// For calls fn(w, lo, hi) over ranges that cover [0, n) exactly once;
// n <= 0 calls nothing. work estimates the loop's cost: below minWork,
// or when one goroutine would do, For calls fn(0, 0, n) on the caller.
// Otherwise up to Workers(workers) goroutines, the caller's among them,
// take ranges of ⌈n/(8·goroutines)⌉ indices off one atomic counter, so
// ranges of uneven cost still balance. w, below the goroutine count,
// names the goroutine: two calls with the same w never overlap, so it
// may index per-goroutine scratch. For returns once every goroutine has
// returned, re-raising the first panic of fn.
func For(n, work, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	g := min(Workers(workers), n)
	if g == 1 || work < minWork {
		fn(0, 0, n)
		return
	}
	l := &loop{n: n, chunk: (n + 8*g - 1) / (8 * g), fn: fn}
	l.wg.Add(g - 1)
	for w := 1; w < g; w++ {
		go l.worker(w) //lint:allow detlint the one fan-out; For waits for it and the ranges it runs are schedule-independent
	}
	l.run(0)
	l.wg.Wait()
	if p := l.panicked.Load(); p != nil {
		panic(*p)
	}
}

// loop is the shared state of one fanned-out For call.
type loop struct {
	n, chunk int
	fn       func(w, lo, hi int)
	next     atomic.Int64
	wg       sync.WaitGroup
	panicked atomic.Pointer[any] // the first panic of fn
}

func (l *loop) worker(w int) {
	defer l.wg.Done()
	l.run(w)
}

// run takes ranges off the counter until none is left or fn panics.
func (l *loop) run(w int) {
	defer func() {
		if p := recover(); p != nil {
			l.panicked.CompareAndSwap(nil, &p)
		}
	}()
	for {
		lo := int(l.next.Add(int64(l.chunk))) - l.chunk
		if lo >= l.n {
			return
		}
		l.fn(w, lo, min(lo+l.chunk, l.n))
	}
}
