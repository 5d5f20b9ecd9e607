package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/view"
)

// The budget and quiescence failures must be the typed StuckError, so
// the advice service and the chaos harness can branch on the failure
// shape instead of parsing strings.
func TestStuckErrorTyped(t *testing.T) {
	g := graph.Path(3)
	f := func(simID, deg int) Decider { return never{} }
	_, err := RunAsync(view.NewTable(), g, f, 5, 1, nil)
	var se *StuckError
	if !errors.As(err, &se) {
		t.Fatalf("budget error is %T, want *StuckError", err)
	}
	if se.Quiesced || se.MaxRounds != 5 || se.Undecided != 3 {
		t.Errorf("budget StuckError = %+v", se)
	}
	if len(se.Sample) == 0 || se.MinRound < 0 || se.MaxRound < se.MinRound {
		t.Errorf("budget StuckError diagnostics incomplete: %+v", se)
	}

	inCut := make([]bool, 8)
	inCut[0], inCut[1], inCut[2] = true, true, true
	ring := graph.Ring(8)
	fs := func(simID, deg int) Decider { return &stopAt{round: 6, out: []int{}} }
	_, err = RunAsync(view.NewTable(), ring, fs, 100, 1, NewSlowCutDelay(inCut, Drop, 0.1))
	se = nil
	if !errors.As(err, &se) {
		t.Fatalf("quiescence error is %T, want *StuckError", err)
	}
	if !se.Quiesced || se.Undecided == 0 || se.Pending != 0 {
		t.Errorf("quiescence StuckError = %+v", se)
	}
}

// TestStuckErrorText pins which failure the text names. An asynchronous
// budget trip reads as one even when a decided node crossed the budget
// while every undecided node still lagged behind it (MaxRound <
// MaxRounds), and a stall short of any budget (MaxRounds zero, as the
// sharded engine reports it) never claims an exceeded budget.
func TestStuckErrorText(t *testing.T) {
	g := graph.Path(12)
	f := func(simID, deg int) Decider {
		if simID < 6 {
			return &stopAt{round: 0, out: []int{}}
		}
		return never{}
	}
	lagging := 0
	for seed := int64(0); seed < 200; seed++ {
		_, err := RunAsync(view.NewTable(), g, f, 5, seed, nil)
		var se *StuckError
		if !errors.As(err, &se) || se.Quiesced {
			t.Fatalf("seed %d: err = %v, want a budget StuckError", seed, err)
		}
		if se.MaxRound < se.MaxRounds {
			lagging++
		}
		if !strings.HasPrefix(err.Error(), "sim: round budget of 5 exceeded: 6 nodes undecided after 5 rounds;") {
			t.Fatalf("seed %d: budget error reads %q", seed, err)
		}
	}
	if lagging == 0 {
		t.Error("no seed tripped the budget with every undecided node behind it")
	}
	stall := &StuckError{Undecided: 20}
	if got, want := stall.Error(), "sim: stalled at round 0: 20 nodes undecided"; got != want {
		t.Errorf("stall error = %q, want %q", got, want)
	}
}

// Canceled contexts must abort both engines with an error wrapping
// ctx.Err(), at a round checkpoint — not run to the budget.
func TestEnginesHonorCancellation(t *testing.T) {
	g := graph.Ring(9)
	tab := view.NewTable()
	f := func(simID, deg int) Decider { return never{} }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := RunBSPCtx(ctx, tab, g, f, 1_000_000, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("bsp: err = %v, want context.Canceled", err)
	}
	if _, err := RunAsyncCtx(ctx, tab, g, f, 1_000_000, 1, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("async: err = %v, want context.Canceled", err)
	}
}

// cancelOnSend is a delay model that cancels the context at the first
// round-1 send (idempotent) and otherwise delays like its inner model.
type cancelOnSend struct {
	DelayModel
	cancel context.CancelFunc
}

func (c cancelOnSend) Delay(v, p, r int, now float64) float64 {
	if r >= 1 {
		c.cancel()
	}
	return c.DelayModel.Delay(v, p, r, now)
}

// TestAsyncCancelAtEventBoundary pins the asynchronous engine's
// between-rounds cancellation checkpoint (every 8192 events). In a
// clique a node reaches round r+1 only after nearly every round-r
// message in the network has been delivered, so consecutive global
// round advances — the other cancellation checkpoint — are ~2m > 8192
// events apart. The deciders stop at round 3, so the synchronous run
// that fixes the decisions completes; a cancel fired by the first
// round-1 send of the schedule must then be caught by the event-count
// check, not a round advance: the error says "canceled with", wraps
// ctx.Err(), and is not a StuckError (the run died to the caller, not
// to the budget).
func TestAsyncCancelAtEventBoundary(t *testing.T) {
	g := graph.Clique(150) // 2m = 22350 events per round
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := func(simID, deg int) Decider { return &stopAt{round: 3, out: []int{}} }
	model := cancelOnSend{DelayModel: NewUniformDelay(), cancel: cancel}
	res, err := RunAsyncCtx(ctx, view.NewTable(), g, f, 1_000_000, 1, model)
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	var se *StuckError
	if errors.As(err, &se) {
		t.Fatalf("cancellation surfaced as StuckError: %+v", se)
	}
	if want := "canceled with"; !strings.Contains(err.Error(), want) {
		t.Errorf("err %q does not contain %q (expected the 8192-event checkpoint, not a round advance)", err, want)
	}
}

// TestAsyncCtxStuckErrorPropagates: a live context must not change the
// failure typing — the budget trip through RunAsyncCtx is still the
// errors.As-able *StuckError.
func TestAsyncCtxStuckErrorPropagates(t *testing.T) {
	g := graph.Path(3)
	f := func(simID, deg int) Decider { return never{} }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunAsyncCtx(ctx, view.NewTable(), g, f, 5, 1, nil)
	var se *StuckError
	if !errors.As(err, &se) {
		t.Fatalf("budget error through RunAsyncCtx is %T, want *StuckError", err)
	}
	if se.Quiesced || se.MaxRounds != 5 || se.Undecided != 3 {
		t.Errorf("StuckError = %+v", se)
	}
}
