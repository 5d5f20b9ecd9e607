// The asynchronous engine.
//
// This file implements the paper's remark that "the synchronous process
// of the LOCAL model can be simulated in an asynchronous network using
// time-stamps": every node runs the standard α-synchronizer — it stamps
// each message with its round number and advances to round r+1 only
// after collecting the round-r messages of all neighbors — over an
// event-driven network whose per-message delays are chosen by a
// pluggable adversary (DelayModel, see delay.go).
//
// The engine's load-bearing observation is that the synchronizer makes
// message *content* a pure function of the stamp: whatever the
// schedule, a node entering logical round r knows exactly B^r(v)
// (induction on r — its round-(r-1) frontier was the neighbors'
// B^{r-1}, which is precisely how B^r(v) is defined), and by the
// Yamashita–Kameda quotient argument B^r(v) is shared by v's whole
// view class at depth r. So a node decides on entering logical round r
// exactly what it decides after round r of RunBSP, and the engine
// computes the election once, with RunBSP — on labels for label
// programs such as Algorithm Elect, on class-shared views otherwise —
// and then replays it on the schedule: events carry only timing
// (delivery time, sequence, destination, round stamp), and node v
// decides when it enters its RunBSP decision round.
// The adversary controls the schedule and nothing else, which is why
// Outputs, Rounds and Time are RunBSP's under every delay model and
// seed (the differential suite in engines_test.go pins this), while
// VirtualTime, the round skew, the delivered messages and every
// failure of the schedule vary wildly.
//
// The synchronizer also bounds the bookkeeping: neighbors' rounds
// differ by at most one, so a node only ever receives stamps for its
// current round or the next — two flat arrival counters per node
// replace the old per-node map[round]inbox. Events move through a
// bucketed calendar queue (calendar.go) in the same deterministic
// (time, sequence) order the old heap used.
package sim

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
	"repro/internal/view"
)

// StuckNode is one undecided node and the logical round it is stuck at.
type StuckNode struct {
	Node  int
	Round int
}

// StuckError reports a run that could not complete: either the round
// budget was exceeded (a node needed more than MaxRounds rounds; every
// engine reports this failure with this type), or, on the asynchronous
// engine, the network quiesced (the event queue drained with nodes
// still undecided — the signature of an adversary that drops messages,
// e.g. a severed slow cut), or the run stalled short of its budget (the
// sharded engine's timed-out exchanges and exhausted restart budget,
// which wrap this type with MaxRounds left zero). It carries the
// diagnostics the service and the tests branch on: how many nodes are
// stuck and the round window they occupy; the asynchronous engine adds
// a sample of them and the pending-event count at failure. The
// synchronous engines fail in lockstep, so their window is the budget
// round itself.
type StuckError struct {
	Quiesced  bool        // event queue drained
	MaxRounds int         // the round budget, when it tripped; else 0
	Undecided int         // nodes still undecided
	MinRound  int         // slowest undecided node's logical round
	MaxRound  int         // fastest undecided node's logical round
	Pending   int         // events still queued when the run gave up
	Sample    []StuckNode // up to four undecided nodes with their rounds
}

func (e *StuckError) Error() string {
	var msg string
	switch {
	case e.Quiesced:
		msg = fmt.Sprintf("sim: network quiesced: %d nodes undecided", e.Undecided)
	case e.MaxRounds > 0:
		msg = fmt.Sprintf("sim: round budget of %d exceeded: %d nodes undecided after %d rounds",
			e.MaxRounds, e.Undecided, e.MaxRounds)
	default:
		msg = fmt.Sprintf("sim: stalled at round %d: %d nodes undecided", e.MaxRound, e.Undecided)
	}
	if len(e.Sample) == 0 {
		return msg
	}
	sample := make([]string, len(e.Sample))
	for i, s := range e.Sample {
		sample[i] = fmt.Sprintf("node %d@r%d", s.Node, s.Round)
	}
	return fmt.Sprintf("%s; undecided nodes at rounds %d..%d (%s), %d pending events",
		msg, e.MinRound, e.MaxRound, strings.Join(sample, ", "), e.Pending)
}

// budgetExceeded is the lockstep engines' round-budget failure: every
// undecided node is at the budget round.
func budgetExceeded(maxRounds, undecided int) *StuckError {
	return &StuckError{MaxRounds: maxRounds, Undecided: undecided, MinRound: maxRounds, MaxRound: maxRounds}
}

// AsyncResult extends Result with the schedule-level measurements.
type AsyncResult struct {
	Result
	// VirtualTime is the virtual time at which the last event was
	// delivered before every node had decided.
	VirtualTime float64
	// MaxSkew is the maximum observed spread between the fastest
	// node's logical round and the slowest undecided node's — the
	// quantity an adversarial delay model maximizes and a uniform one
	// keeps near constant.
	MaxSkew int
}

// RunAsync executes the protocol on an asynchronous network whose
// per-message delays are chosen by model (nil selects the uniform
// (0,1] model) seeded with seed. Logical rounds are driven by the
// time-stamp synchronizer; decisions and decision rounds are identical
// to the synchronous engines' under every model.
func RunAsync(tab *view.Table, g *graph.Graph, f Factory, maxRounds int, seed int64, model DelayModel) (*AsyncResult, error) {
	return RunAsyncCtx(context.Background(), tab, g, f, maxRounds, seed, model)
}

// RunAsyncCtx is RunAsync with cancellation checkpoints: RunBSP's per
// round, then, on the schedule, per logical round of the global
// frontier and every few thousand delivered events in between (an
// adversarial schedule can deliver unboundedly many events without
// advancing the frontier).
func RunAsyncCtx(ctx context.Context, tab *view.Table, g *graph.Graph, f Factory, maxRounds int, seed int64, model DelayModel) (*AsyncResult, error) {
	// The synchronous run fixes every output and decision round; on a
	// tripped budget it still says who decided when, so the schedule
	// can report where it got stuck.
	syn, err := runBSP(ctx, tab, g, f, maxRounds, 0)
	if syn == nil {
		return nil, err
	}
	n := g.N()
	if model == nil {
		model = NewUniformDelay()
	}
	model.Reset(g, seed)
	res := &AsyncResult{Result: *syn}
	res.Messages = 0 // the schedule counts the delivered ones

	round := make([]int32, n) // current logical round per node
	cnt0 := make([]int32, n)  // round-stamped arrivals for the current round
	cnt1 := make([]int32, n)  // ... and for the next round
	done := make([]bool, n)
	undecided := n
	liveAt := []int32{int32(n)} // undecided nodes per logical round
	minLive := 0                // slowest undecided node's round
	maxRound := 0               // fastest node's round

	// decide lets v decide on entering logical round r if RunBSP's v
	// decided at round r.
	decide := func(v, r int) {
		if syn.Rounds[v] == r {
			done[v] = true
			undecided--
			liveAt[r]--
		}
	}
	for v := 0; v < n; v++ {
		decide(v, 0)
	}

	q := newCalQueue(2 * g.M())
	now := 0.0
	seq := uint64(0)
	send := func(v, r int) error {
		for p := 0; p < g.Deg(v); p++ {
			d := model.Delay(v, p, r, now)
			if math.IsInf(d, 1) {
				continue // adversarial loss
			}
			if !(d > 0) || d > MaxDelay {
				return fmt.Errorf("sim: delay model returned %v for node %d port %d round %d; want (0, %.0g] or Drop", d, v, p, r, MaxDelay)
			}
			seq++
			q.push(calEvent{at: now + d, seq: seq, dst: int32(g.At(v, p).To), round: int32(r)})
		}
		return nil
	}

	if undecided > 0 {
		for v := 0; v < n; v++ {
			if err := send(v, 0); err != nil {
				return nil, err
			}
		}
	}

	// stuck assembles the typed diagnostics of a failed run: the round
	// window of the undecided nodes, a sample of them, and the queue
	// backlog at the moment the run gave up.
	stuck := func(quiesced bool) *StuckError {
		se := &StuckError{
			Quiesced: quiesced, Undecided: undecided,
			MinRound: -1, Pending: q.len(),
		}
		if !quiesced {
			se.MaxRounds = maxRounds
		}
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			r := int(round[v])
			if se.MinRound < 0 || r < se.MinRound {
				se.MinRound = r
			}
			if r > se.MaxRound {
				se.MaxRound = r
			}
			if len(se.Sample) < 4 {
				se.Sample = append(se.Sample, StuckNode{Node: v, Round: r})
			}
		}
		return se
	}

	const cancelCheckEvery = 8192
	sinceCheck := 0
events:
	for undecided > 0 && q.len() > 0 {
		if sinceCheck++; sinceCheck >= cancelCheckEvery {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: async canceled with %d nodes undecided: %w", undecided, err)
			}
		}
		e := q.pop()
		now = e.at
		res.Messages++
		v := int(e.dst)
		switch e.round - round[v] {
		case 0:
			cnt0[v]++
		case 1:
			cnt1[v]++
		default:
			// Unreachable under the synchronizer: a sender can be at
			// most one round ahead of (and never behind a round it has
			// fully served to) each neighbor.
			return nil, fmt.Errorf("sim: async stamp %d outside node %d's window at round %d", e.round, v, round[v])
		}
		deg := int32(g.Deg(v))
		// Synchronizer: advance while the full frontier has arrived.
		for cnt0[v] == deg {
			r := int(round[v]) + 1
			if r > maxRounds {
				return nil, stuck(false)
			}
			round[v] = int32(r)
			cnt0[v], cnt1[v] = cnt1[v], 0
			if r > maxRound {
				maxRound = r
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sim: async canceled at round %d with %d nodes undecided: %w", r, undecided, err)
				}
				if skew := maxRound - minLive; skew > res.MaxSkew {
					res.MaxSkew = skew
				}
			}
			if !done[v] {
				liveAt[r-1]--
				//lint:allow ctxcheckpoint grow loop bounded by r (one append per missing round slot)
				for len(liveAt) <= r {
					liveAt = append(liveAt, 0)
				}
				liveAt[r]++
				decide(v, r)
				if undecided == 0 {
					break events
				}
				//lint:allow ctxcheckpoint bounded by maxRound (liveAt[r] > 0 for some live round)
				for liveAt[minLive] == 0 {
					minLive++
				}
			}
			if err := send(v, r); err != nil {
				return nil, err
			}
		}
	}
	if undecided > 0 {
		return nil, stuck(true)
	}
	res.VirtualTime = now
	return res, nil
}
