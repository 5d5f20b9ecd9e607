package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversEachIndexOnce checks that the ranges of For cover [0, n)
// exactly once and that w stays below the worker count, inline and fanned
// out, for worker counts below, at and above n.
func TestForCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 10_000} {
		for _, work := range []int{0, minWork} {
			for _, workers := range []int{1, 2, 8, n + 1} {
				t.Run(fmt.Sprintf("n%d/work%d/workers%d", n, work, workers), func(t *testing.T) {
					seen := make([]atomic.Int32, n)
					For(n, work, workers, func(w, lo, hi int) {
						if w < 0 || w >= workers || lo < 0 || lo >= hi || hi > n {
							t.Errorf("fn(%d, %d, %d) with %d workers on %d indices", w, lo, hi, workers, n)
							return
						}
						for i := lo; i < hi; i++ {
							seen[i].Add(1)
						}
					})
					for i := range seen {
						if c := seen[i].Load(); c != 1 {
							t.Fatalf("index %d covered %d times", i, c)
						}
					}
				})
			}
		}
	}
}

// TestForSameWNeverOverlaps checks that two calls with the same w never
// run at once, so w may index per-goroutine scratch. Run it under -race.
func TestForSameWNeverOverlaps(t *testing.T) {
	const workers = 8
	var busy [workers]atomic.Bool
	var calls atomic.Int32
	For(10_000, minWork, workers, func(w, lo, hi int) {
		if !busy[w].CompareAndSwap(false, true) {
			t.Errorf("two calls with w = %d overlap", w)
			return
		}
		calls.Add(1)
		runtime.Gosched()
		busy[w].Store(false)
	})
	if calls.Load() < 2 {
		t.Fatalf("the loop made %d calls; want it fanned out", calls.Load())
	}
}

// TestForPanicReraisedAfterAllReturn checks that a panic in fn reaches
// the caller only after every other call has returned, that every range
// but the panicking one still ran, and that no goroutine outlives For.
func TestForPanicReraisedAfterAllReturn(t *testing.T) {
	const n = 256
	base := runtime.NumGoroutine()
	var active, covered atomic.Int32
	var panicked int32
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want boom", p)
			}
			if a := active.Load(); a != 0 {
				t.Fatalf("For re-raised the panic with %d calls still running", a)
			}
		}()
		For(n, minWork, 4, func(w, lo, hi int) {
			active.Add(1)
			defer active.Add(-1)
			if lo == 0 {
				atomic.StoreInt32(&panicked, int32(hi))
				panic("boom")
			}
			time.Sleep(time.Millisecond)
			covered.Add(int32(hi - lo))
		})
	}()
	if want := n - atomic.LoadInt32(&panicked); covered.Load() != want {
		t.Errorf("the other ranges covered %d indices, want %d", covered.Load(), want)
	}
	// A goroutine exits just after it signals For, so give it a moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after For, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForInline checks that For runs the whole loop as fn(0, 0, n) on
// the caller below minWork, with one worker, and on one index.
func TestForInline(t *testing.T) {
	for _, c := range []struct{ n, work, workers int }{
		{100, minWork - 1, 8},
		{100, minWork, 1},
		{1, minWork, 8},
	} {
		var calls [][3]int
		For(c.n, c.work, c.workers, func(w, lo, hi int) { calls = append(calls, [3]int{w, lo, hi}) })
		if len(calls) != 1 || calls[0] != [3]int{0, 0, c.n} {
			t.Errorf("For(%d, %d, %d) made calls %v, want [[0 0 %d]]", c.n, c.work, c.workers, calls, c.n)
		}
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	for _, w := range []int{0, -1} {
		if got := Workers(w); got != runtime.GOMAXPROCS(0) {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS %d", w, got, runtime.GOMAXPROCS(0))
		}
	}
}
