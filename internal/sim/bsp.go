// Bulk-synchronous class-sharing engine.
//
// RunSequential and RunConcurrent realize a round by building one view
// per node (and, concurrently, one goroutine per node and one channel
// per directed edge). But nodes in the same view-equivalence class at
// depth r carry *identical* B^r(v) — the Yamashita–Kameda quotient
// argument behind Proposition 2.1 — so a round only ever needs one
// interned view per class. RunBSP exploits that through the
// classviews.Materializer it shares with RunAsync (one
// part.FrontierRefiner step and one interned view per class per round):
// every node reads its view as Views()[Class()[v]], and the Decide
// sweep is batched over a worker pool sharded by node ranges with a
// barrier per round.
//
// The engine is observationally identical to RunSequential (same
// Outputs, Rounds, Time, Messages, and — because interning makes
// structural equality pointer equality — the very same *view.View
// handles reach the deciders). All buffers are reused across rounds.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/classviews"
	"repro/internal/graph"
	"repro/internal/view"
)

// RunBSP executes the synchronous protocol with class-shared views and a
// worker-pool decide sweep. workers <= 0 selects GOMAXPROCS. It must
// behave exactly like RunSequential on every input; deciders may be
// invoked from multiple goroutines (for different nodes), the same
// discipline RunConcurrent already imposes.
func RunBSP(tab *view.Table, g *graph.Graph, f Factory, maxRounds, workers int) (*Result, error) {
	return RunBSPCtx(context.Background(), tab, g, f, maxRounds, workers)
}

// RunBSPCtx is RunBSP with a cancellation checkpoint per round, so a
// runaway simulation under a per-request timeout stops at the next
// round barrier instead of running to the maxRounds budget.
func RunBSPCtx(ctx context.Context, tab *view.Table, g *graph.Graph, f Factory, maxRounds, workers int) (*Result, error) {
	n := g.N()
	deciders := make([]Decider, n)
	for v := 0; v < n; v++ {
		deciders[v] = f(v, g.Deg(v))
	}
	res := &Result{Outputs: make([][]int, n), Rounds: make([]int, n)}
	done := make([]bool, n)

	cv := classviews.New(tab, g)
	res.ClassViews += cv.NumClasses()

	sweep := newSweeper(n, workers, deciders, done, res)
	defer sweep.close()

	remaining := n
	for r := 0; ; r++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: bsp canceled at round %d with %d nodes undecided: %w", r, remaining, err)
		}
		remaining -= sweep.run(r, cv.Class(), cv.Views())
		if remaining == 0 {
			break
		}
		if r >= maxRounds {
			return nil, budgetExceeded(maxRounds, remaining)
		}
		cv.Step()
		res.ClassViews += cv.NumClasses()
		res.Messages += 2 * g.M()
	}
	for _, r := range res.Rounds {
		if r > res.Time {
			res.Time = r
		}
	}
	return res, nil
}

// sweeper runs the per-round Decide sweep over a pool of persistent
// workers, each owning contiguous node ranges. Small runs (or workers
// == 1) stay on the calling goroutine: the pool exists for the rounds
// where per-node decision work dominates, not to tax unit-test graphs.
type sweeper struct {
	n        int
	deciders []Decider
	done     []bool
	res      *Result

	workers int
	chunk   int
	jobs    chan sweepJob
	wg      sync.WaitGroup

	round    int
	class    []int32
	cv       []*view.View
	decided  atomic.Int64
	panicMu  sync.Mutex
	panicked any
}

type sweepJob struct{ lo, hi int }

// sweepInlineBelow is the node count under which the pool is bypassed.
const sweepInlineBelow = 2048

func newSweeper(n, workers int, deciders []Decider, done []bool, res *Result) *sweeper {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &sweeper{n: n, deciders: deciders, done: done, res: res, workers: workers}
	if workers == 1 || n < sweepInlineBelow {
		s.workers = 1
		return s
	}
	// ~4 chunks per worker so uneven per-node decision cost (nodes near
	// deciding do real work, decided nodes are skipped) still balances.
	s.chunk = (n + 4*workers - 1) / (4 * workers)
	s.jobs = make(chan sweepJob)
	for w := 0; w < workers; w++ {
		go func() {
			for job := range s.jobs {
				s.runRange(job.lo, job.hi)
				s.wg.Done()
			}
		}()
	}
	return s
}

// run performs the round-r sweep and returns how many nodes decided.
func (s *sweeper) run(r int, class []int32, cv []*view.View) int {
	s.round, s.class, s.cv = r, class, cv
	s.decided.Store(0)
	if s.workers == 1 {
		s.runRange(0, s.n)
	} else {
		for lo := 0; lo < s.n; lo += s.chunk {
			hi := lo + s.chunk
			if hi > s.n {
				hi = s.n
			}
			s.wg.Add(1)
			s.jobs <- sweepJob{lo, hi}
		}
		s.wg.Wait()
	}
	if s.panicked != nil {
		// Re-raise on the engine goroutine so a decider panic surfaces
		// to the caller exactly like RunSequential's would.
		panic(s.panicked)
	}
	return int(s.decided.Load())
}

func (s *sweeper) runRange(lo, hi int) {
	defer func() {
		if p := recover(); p != nil {
			s.panicMu.Lock()
			if s.panicked == nil {
				s.panicked = p
			}
			s.panicMu.Unlock()
		}
	}()
	count := int64(0)
	for v := lo; v < hi; v++ {
		if s.done[v] {
			continue
		}
		out, ok := s.deciders[v].Decide(s.round, s.cv[s.class[v]])
		if ok {
			s.res.Outputs[v] = out
			s.res.Rounds[v] = s.round
			s.done[v] = true
			count++
		}
	}
	s.decided.Add(count)
}

func (s *sweeper) close() {
	if s.jobs != nil {
		close(s.jobs)
	}
}
