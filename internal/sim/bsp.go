// Bulk-synchronous engine.
//
// RunSequential and RunConcurrent realize a round by building one view
// per node (and, concurrently, one goroutine per node and one channel
// per directed edge). RunBSP runs the same rounds in one of two ways,
// both one par.For sweep over the nodes per round, which is the round's
// barrier:
//
//   - Label programs (labels.go): when every node's decider is a
//     LabelProgram, nodes exchange one int32 label per round over two
//     label arrays, and no view is interned at all.
//   - Class-shared views: nodes in the same view-equivalence class at
//     depth r carry *identical* B^r(v) — the Yamashita–Kameda quotient
//     argument behind Proposition 2.1 — so a round only ever needs one
//     interned view per class. RunBSP gets them from a
//     classviews.Materializer (one part.FrontierRefiner step and one
//     interned view per class per round), and every node reads its
//     view as Views()[Class()[v]].
//
// The engine is observationally identical to RunSequential (same
// Outputs, Rounds, Time, Messages; on views, because interning makes
// structural equality pointer equality, the very same *view.View
// handles reach the deciders). All buffers are reused across rounds.
// RunAsync takes its decisions from this engine too (async.go).
package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/classviews"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/view"
)

// RunBSP executes the synchronous protocol on labels or class-shared
// views with a parallel sweep. workers <= 0 selects GOMAXPROCS. It
// must behave exactly like RunSequential on every input; deciders may
// be invoked from multiple goroutines (for different nodes), the same
// discipline RunConcurrent already imposes.
func RunBSP(tab *view.Table, g *graph.Graph, f Factory, maxRounds, workers int) (*Result, error) {
	return RunBSPCtx(context.Background(), tab, g, f, maxRounds, workers)
}

// RunBSPCtx is RunBSP with a cancellation checkpoint per round, so a
// runaway simulation under a per-request timeout stops at the next
// round barrier instead of running to the maxRounds budget.
func RunBSPCtx(ctx context.Context, tab *view.Table, g *graph.Graph, f Factory, maxRounds, workers int) (*Result, error) {
	res, err := runBSP(ctx, tab, g, f, maxRounds, workers)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runBSP is RunBSPCtx, except that a tripped round budget returns the
// partial result with its *StuckError: the decisions made within the
// budget, and Rounds[v] = −1 for every node still undecided.
func runBSP(ctx context.Context, tab *view.Table, g *graph.Graph, f Factory, maxRounds, workers int) (*Result, error) {
	n := g.N()
	deciders := make([]Decider, n)
	labels := true
	for v := 0; v < n; v++ {
		deciders[v] = f(v, g.Deg(v))
		_, ok := deciders[v].(LabelProgram)
		labels = labels && ok
	}
	if labels {
		return runLabels(ctx, g, deciders, maxRounds, workers)
	}
	res := newResult(n)

	cv := classviews.New(tab, g)
	res.ClassViews += cv.NumClasses()

	vs := &viewSweep{deciders: deciders, res: res}
	sweep := vs.sweep // bound once per run: a method value made per round escapes into For

	remaining := n
	for r := 0; ; r++ {
		if err := ctx.Err(); err != nil {
			return nil, canceled(r, remaining, err)
		}
		vs.round, vs.class, vs.views = r, cv.Class(), cv.Views()
		par.For(n, n, workers, sweep)
		remaining -= int(vs.decided.Swap(0))
		if remaining == 0 {
			break
		}
		if r >= maxRounds {
			return res, budgetExceeded(maxRounds, remaining)
		}
		cv.Step()
		res.ClassViews += cv.NumClasses()
		res.Messages += 2 * g.M()
	}
	res.setTime()
	return res, nil
}

func canceled(round, undecided int, err error) error {
	return fmt.Errorf("sim: bsp canceled at round %d with %d nodes undecided: %w", round, undecided, err)
}

// newResult returns the result of a run on n nodes none of which has
// decided yet: Rounds[v] = −1.
func newResult(n int) *Result {
	res := &Result{Outputs: make([][]int, n), Rounds: make([]int, n)}
	for v := range res.Rounds {
		res.Rounds[v] = -1
	}
	return res
}

// setTime sets Time to the last decision round.
func (res *Result) setTime() {
	for _, r := range res.Rounds {
		res.Time = max(res.Time, r)
	}
}

// viewSweep is the round-r Decide sweep on class-shared views.
type viewSweep struct {
	deciders []Decider
	res      *Result      // Rounds[v] < 0 while v is undecided
	decided  atomic.Int64 // nodes decided in the round so far

	round int
	class []int32
	views []*view.View
}

func (s *viewSweep) sweep(_, lo, hi int) {
	decided := 0
	for v := lo; v < hi; v++ {
		if s.res.Rounds[v] >= 0 {
			continue
		}
		if out, ok := s.deciders[v].Decide(s.round, s.views[s.class[v]]); ok {
			s.res.Outputs[v], s.res.Rounds[v] = out, s.round
			decided++
		}
	}
	s.decided.Add(int64(decided))
}
