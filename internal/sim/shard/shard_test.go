package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// countDecider is deliberately stateful: its output embeds how many
// times Decide was called and the view degree it last saw, so any
// recovery that replays the call sequence even one call off produces
// different bits and the differential check catches it.
type countDecider struct {
	id     int
	target int
	calls  int
}

func (d *countDecider) Decide(r int, b *view.View) ([]int, bool) {
	d.calls++
	if r >= d.target {
		return []int{d.id % 3, d.calls, b.Deg}, true
	}
	return nil, false
}

// countFactory staggers decision rounds by degree and node id so nodes
// decide at different rounds, exercising decided-but-participating.
func countFactory(simID, deg int) sim.Decider {
	return &countDecider{id: simID, target: 1 + (deg+simID)%4}
}

// countLabels is countDecider as a label program: its output embeds its
// DecideLabel call count and the last label it read, and its decision
// rounds are staggered the same way. Its labels hash the node's whole
// view (round by round, from its ports and its neighbours' labels), so
// a label that is wrong, stale, or read from the wrong port or round
// changes some output. The engine must run it on labels: Decide
// panics.
type countLabels struct {
	id     int
	target int
	calls  int
}

func mix(h, x int32) int32 { return h*1000003 ^ x }

func (p *countLabels) InitLabel(remote, nbrDeg []int32) int32 {
	h := int32(len(remote))
	for j := range remote {
		h = mix(mix(h, remote[j]), nbrDeg[j])
	}
	return h
}

func (p *countLabels) StepLabel(r int, own int32, nbr []int32) int32 {
	h := mix(own, int32(r))
	for _, x := range nbr {
		h = mix(h, x)
	}
	return h
}

func (p *countLabels) DecideLabel(r int, label int32) ([]int, bool) {
	p.calls++
	if r >= p.target {
		return []int{p.id % 3, p.calls, int(label)}, true
	}
	return nil, false
}

func (p *countLabels) Decide(int, *view.View) ([]int, bool) {
	panic("countLabels runs on labels only")
}

func countLabelFactory(simID, deg int) sim.Decider {
	return &countLabels{id: simID, target: 1 + (deg+simID)%4}
}

// programKinds are the two kinds of decider every suite runs: a label
// program, which workers run natively, and a view decider, which RunCtx
// runs through the view adapter.
var programKinds = []struct {
	name string
	f    sim.Factory
}{{"labels", countLabelFactory}, {"views", countFactory}}

// forEachKind runs body as one subtest per program kind.
func forEachKind(t *testing.T, body func(t *testing.T, f sim.Factory)) {
	for _, k := range programKinds {
		t.Run(k.name, func(t *testing.T) { body(t, k.f) })
	}
}

type never struct{}

func (never) Decide(r int, b *view.View) ([]int, bool) { return nil, false }

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ring12":   graph.Ring(12),
		"path9":    graph.Path(9),
		"grid45":   graph.Grid(4, 5),
		"torus44":  graph.Torus(4, 4),
		"lollipop": graph.Lollipop(5, 6),
		"random60": graph.RandomConnected(60, 45, 11),
	}
}

// requireSame asserts the sharded result is bit-identical to RunBSP's
// on everything the paper measures — including Messages, the 2m-per-
// round synchronous measure the supervisor must replicate exactly.
func requireSame(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	if got.Time != want.Time || got.Messages != want.Messages {
		t.Fatalf("%s: time/messages (%d,%d), want (%d,%d)", label, got.Time, got.Messages, want.Time, want.Messages)
	}
	for v := range want.Outputs {
		if got.Rounds[v] != want.Rounds[v] {
			t.Fatalf("%s: node %d decided at %d, want %d", label, v, got.Rounds[v], want.Rounds[v])
		}
		if len(got.Outputs[v]) != len(want.Outputs[v]) {
			t.Fatalf("%s: node %d output %v, want %v", label, v, got.Outputs[v], want.Outputs[v])
		}
		for i := range want.Outputs[v] {
			if got.Outputs[v][i] != want.Outputs[v][i] {
				t.Fatalf("%s: node %d output %v, want %v", label, v, got.Outputs[v], want.Outputs[v])
			}
		}
	}
}

func TestChanTransportFIFO(t *testing.T) {
	tr := NewChanTransport(2)
	for i := 0; i < 5; i++ {
		tr.Send(Message{From: 0, To: 1, Kind: KindData, Round: i})
	}
	for i := 0; i < 5; i++ {
		m, ok := tr.Recv(1, time.Second)
		if !ok || m.Round != i {
			t.Fatalf("recv %d: ok=%v round=%d", i, ok, m.Round)
		}
	}
	if _, ok := tr.Recv(1, time.Millisecond); ok {
		t.Fatal("recv on empty mailbox succeeded")
	}
}

func TestChanTransportReset(t *testing.T) {
	tr := NewChanTransport(2)
	tr.Send(Message{From: 0, To: 1, Kind: KindData, Round: 7})
	tr.Reset(1)
	if _, ok := tr.Recv(1, time.Millisecond); ok {
		t.Fatal("message survived mailbox reset")
	}
	tr.Send(Message{From: 0, To: 1, Kind: KindData, Round: 8})
	if m, ok := tr.Recv(1, time.Second); !ok || m.Round != 8 {
		t.Fatalf("post-reset delivery broken: ok=%v round=%d", ok, m.Round)
	}
}

func TestFaultTransportSchedules(t *testing.T) {
	inner := NewChanTransport(2)
	ft := NewFaultTransport(inner, faults.New(1))
	ft.Faults().Arm(FaultDrop, 1)
	ft.Send(Message{From: 0, To: 1, Round: 1}) // dropped
	ft.Send(Message{From: 0, To: 1, Round: 2})
	if m, ok := ft.Recv(1, time.Second); !ok || m.Round != 2 {
		t.Fatalf("drop budget misfired: ok=%v round=%d", ok, m.Round)
	}

	ft.Faults().Arm(FaultDup, 1)
	ft.Send(Message{From: 0, To: 1, Round: 3})
	for i := 0; i < 2; i++ {
		if m, ok := ft.Recv(1, time.Second); !ok || m.Round != 3 {
			t.Fatalf("dup delivery %d: ok=%v round=%d", i, ok, m.Round)
		}
	}

	ft.Faults().Arm(CrashCat(0), 1)
	err := ft.Send(Message{From: 0, To: 1, Round: 4})
	var crash *CrashError
	if !errors.As(err, &crash) || crash.Shard != 0 {
		t.Fatalf("crash budget: err=%v", err)
	}

	ft.Faults().SetRate(CutCat(0, 1), 1)
	ft.Send(Message{From: 0, To: 1, Round: 5})
	if _, ok := ft.Recv(1, 2*time.Millisecond); ok {
		t.Fatal("severed link delivered")
	}
	ft.Send(Message{From: 1, To: 0, Round: 6})
	if m, ok := ft.Recv(0, time.Second); !ok || m.Round != 6 {
		t.Fatalf("reverse direction of a one-way cut broken: ok=%v round=%d", ok, m.Round)
	}
}

func TestFaultTransportReorder(t *testing.T) {
	inner := NewChanTransport(2)
	ft := NewFaultTransport(inner, faults.New(1))
	ft.Faults().Arm(FaultReorder, 1)
	ft.Send(Message{From: 0, To: 1, Round: 1}) // held back
	ft.Send(Message{From: 0, To: 1, Round: 2}) // releases 1 behind itself
	first, _ := ft.Recv(1, time.Second)
	second, ok := ft.Recv(1, time.Second)
	if !ok || first.Round != 2 || second.Round != 1 {
		t.Fatalf("reorder: got %d then %d (ok=%v), want 2 then 1", first.Round, second.Round, ok)
	}
}

// TestShardedMatchesBSPClean is the fault-free differential: every
// family × shard counts, reliable transport.
func TestShardedMatchesBSPClean(t *testing.T) {
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		for name, g := range testGraphs() {
			want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
			if err != nil {
				t.Fatalf("%s: bsp: %v", name, err)
			}
			for _, shards := range []int{2, 3, 5} {
				got, stats, err := Run(view.NewTable(), g, f, Options{Shards: shards})
				if err != nil {
					t.Fatalf("%s/shards=%d: %v", name, shards, err)
				}
				requireSame(t, fmt.Sprintf("%s/shards=%d", name, shards), want, got)
				// Retries can legitimately fire on a reliable transport (a
				// busy peer acking later than the first backoff), so only
				// crashes are pinned to zero here.
				if stats.Crashes != 0 || stats.Recoveries != 0 {
					t.Errorf("%s/shards=%d: clean run reports %d crashes, %d recoveries", name, shards, stats.Crashes, stats.Recoveries)
				}
			}
		}
	})
}

// TestShardedMatchesBSPUnderChaos is the chaos differential: seeded
// drop/dup/reorder/delay rates plus seed-chosen crashes; the outputs
// must not move by a bit. A crash whose report lands while the run is
// already shutting down never restarts, so recoveries may lag crashes
// by those final-barrier casualties — never the other way around.
func TestShardedMatchesBSPUnderChaos(t *testing.T) {
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		for name, g := range testGraphs() {
			want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
			if err != nil {
				t.Fatalf("%s: bsp: %v", name, err)
			}
			for _, shards := range []int{2, 3} {
				for seed := int64(1); seed <= 3; seed++ {
					inj := SeededChaos(seed, shards)
					ft := NewFaultTransport(NewChanTransport(shards), inj)
					got, stats, err := Run(view.NewTable(), g, f, Options{
						Shards: shards, Transport: ft, Seed: seed,
					})
					label := fmt.Sprintf("%s/shards=%d/seed=%d [%s]", name, shards, seed, inj)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSame(t, label, want, got)
					if stats.Recoveries > stats.Crashes {
						t.Errorf("%s: %d recoveries exceed %d crashes", label, stats.Recoveries, stats.Crashes)
					}
				}
			}
		}
	})
}

// TestShardedKillRestart arms one deterministic crash per shard and
// asserts the run recovers every one of them with identical outputs —
// the kill-restart chaos test in the style of serve's harness, plus the
// stateful-decider fidelity check (both kinds' outputs embed call
// counts, so a replay that re-runs or skips a single decision changes
// the bits).
func TestShardedKillRestart(t *testing.T) {
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		for name, g := range testGraphs() {
			want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
			if err != nil {
				t.Fatalf("%s: bsp: %v", name, err)
			}
			const shards = 3
			inj := faults.New(77)
			for s := 0; s < shards; s++ {
				inj.ArmAfter(CrashCat(s), 1+2*s, 1)
			}
			ft := NewFaultTransport(NewChanTransport(shards), inj)
			got, stats, err := Run(view.NewTable(), g, f, Options{Shards: shards, Seed: 9, Transport: ft})
			if err != nil {
				t.Fatalf("%s: %v [%s]", name, err, inj)
			}
			requireSame(t, name, want, got)
			if stats.Crashes < shards {
				t.Errorf("%s: only %d crashes fired, want %d [%s]", name, stats.Crashes, shards, inj)
			}
			if stats.Recoveries != stats.Crashes {
				t.Errorf("%s: %d crashes but %d recoveries", name, stats.Crashes, stats.Recoveries)
			}
			if stats.Recoveries > 0 && stats.RecoveryTime <= 0 {
				t.Errorf("%s: recoveries with zero recovery time", name)
			}
		}
	})
}

// replayJournal is a MemJournal that kills shard 0 when it first
// checkpoints round 2, so the restarted incarnation replays rounds 0
// and 1 against their checkpoints. With tamper set, node `tamper`'s
// label in shard 0's round-1 checkpoint is altered before it is
// stored.
type replayJournal struct {
	*MemJournal
	tamper  int // local node index to alter, or -1
	crashed atomic.Bool
}

func (j *replayJournal) Checkpoint(shard int, rec Record) error {
	if shard == 0 && rec.Round == 1 && j.tamper >= 0 {
		rec.Labels = append([]int32(nil), rec.Labels...)
		rec.Labels[j.tamper]++
	}
	if shard == 0 && rec.Round == 2 && j.crashed.CompareAndSwap(false, true) {
		return &CrashError{Shard: 0}
	}
	return j.MemJournal.Checkpoint(shard, rec)
}

// TestShardedReplayValidation pins checkpoint validation: a replay that
// reproduces every checkpoint recovers bit-identically, and a round-1
// checkpoint with one node's label altered makes the restarted shard
// fail with a replay divergence naming that node and round.
func TestShardedReplayValidation(t *testing.T) {
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		g := graph.Grid(4, 5)
		want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		jr := &replayJournal{MemJournal: NewMemJournal(), tamper: -1}
		got, stats, err := Run(view.NewTable(), g, f, Options{Shards: 2, Journal: jr})
		if err != nil {
			t.Fatalf("faithful replay: %v", err)
		}
		requireSame(t, "faithful replay", want, got)
		if stats.Crashes != 1 || stats.Recoveries != 1 {
			t.Errorf("faithful replay: %d crashes, %d recoveries, want 1 and 1", stats.Crashes, stats.Recoveries)
		}

		jr = &replayJournal{MemJournal: NewMemJournal(), tamper: 3}
		_, _, err = Run(view.NewTable(), g, f, Options{Shards: 2, Journal: jr})
		if err == nil || !strings.Contains(err.Error(), "shard 0 replay diverged at round 1: node 3 label") {
			t.Fatalf("tampered checkpoint: err = %v, want a round-1 replay divergence at node 3", err)
		}
	})
}

// TestShardedRepeatedCrashes kills the same shard on every restart
// until the budget runs dry, then checks the run still converges.
func TestShardedRepeatedCrashes(t *testing.T) {
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		g := graph.RandomConnected(40, 30, 5)
		want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(3)
		inj.ArmAfter(CrashCat(1), 4, 3) // three consecutive ops crash: dies, redies, redies
		ft := NewFaultTransport(NewChanTransport(2), inj)
		got, stats, err := Run(view.NewTable(), g, f, Options{Shards: 2, Transport: ft})
		if err != nil {
			t.Fatalf("%v [%s]", err, inj)
		}
		requireSame(t, "repeated-crashes", want, got)
		if stats.Crashes != 3 {
			t.Errorf("crashes = %d, want 3 [%s]", stats.Crashes, inj)
		}
	})
}

// TestShardedStuck severs every link out of shard 0 permanently under a
// tiny round timeout: the run must fail with ShardStuckError, and
// errors.As must reach the embedded *sim.StuckError.
func TestShardedStuck(t *testing.T) {
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		g := graph.Ring(12)
		inj := faults.New(5)
		const shards = 2
		for p := 0; p < shards; p++ {
			if p != 0 {
				inj.SetRate(CutCat(0, p), 1)
				inj.SetRate(CutCat(p, 0), 1)
			}
		}
		ft := NewFaultTransport(NewChanTransport(shards), inj)
		_, _, err := Run(view.NewTable(), g, f, Options{
			Shards: shards, Transport: ft, RoundTimeout: 50 * time.Millisecond,
		})
		var se *ShardStuckError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want ShardStuckError", err)
		}
		var stuck *sim.StuckError
		if !errors.As(err, &stuck) {
			t.Fatalf("ShardStuckError does not unwrap to sim.StuckError: %v", err)
		}
		if stuck.Undecided == 0 {
			t.Errorf("stuck error reports zero undecided nodes: %v", err)
		}
	})
}

// TestShardedRestartBudget crashes shard 0 at every transport operation:
// each incarnation dies before finishing round 0, so the supervisor
// must give up once the restart budget is spent, with a
// ShardStuckError that names the budget and claims no round budget.
func TestShardedRestartBudget(t *testing.T) {
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		g := graph.Grid(4, 5)
		inj := faults.New(1)
		inj.SetRate(CrashCat(0), 1)
		ft := NewFaultTransport(NewChanTransport(2), inj)
		_, stats, err := Run(view.NewTable(), g, f, Options{Shards: 2, Transport: ft})
		requireRestartBudget(t, err)
		if stats.Crashes != maxRestarts+1 {
			t.Errorf("crashes = %d, want %d", stats.Crashes, maxRestarts+1)
		}
	})
}

// requireRestartBudget asserts err is the stall of a 4×5 grid at round
// 0 on an exhausted restart budget.
func requireRestartBudget(t *testing.T, err error) {
	t.Helper()
	var se *ShardStuckError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ShardStuckError", err)
	}
	if want := fmt.Sprintf("restart budget of %d exhausted", maxRestarts); se.Reason != want {
		t.Errorf("reason = %q, want %q", se.Reason, want)
	}
	if se.Round != 0 {
		t.Errorf("stuck at round %d, want 0", se.Round)
	}
	if strings.Contains(err.Error(), "undecided after") {
		t.Errorf("restart-budget error claims an exceeded round budget: %v", err)
	}
	var stuck *sim.StuckError
	if !errors.As(err, &stuck) {
		t.Fatalf("ShardStuckError does not unwrap to sim.StuckError: %v", err)
	}
	if got, want := stuck.Error(), "sim: stalled at round 0: 20 nodes undecided"; got != want {
		t.Errorf("inner error = %q, want %q", got, want)
	}
}

// TestShardedMaxRounds pins the sharded engine's budget error to
// RunBSP's exact message.
func TestShardedMaxRounds(t *testing.T) {
	g := graph.Path(6)
	f := func(simID, deg int) sim.Decider { return never{} }
	_, wantErr := sim.RunBSP(view.NewTable(), g, f, 5, 0)
	_, _, gotErr := Run(view.NewTable(), g, f, Options{Shards: 2, MaxRounds: 5})
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("budget errors diverge: %v vs %v", gotErr, wantErr)
	}
}

// TestShardedRejectsSingleShard checks that a run over fewer than 2
// shards, asked for or left after clamping the count to n, is an error
// rather than a silent single-process run.
func TestShardedRejectsSingleShard(t *testing.T) {
	for _, tc := range []struct {
		g      *graph.Graph
		shards int
	}{{graph.Grid(4, 4), 0}, {graph.Grid(4, 4), 1}, {graph.NewBuilder(1).MustFinalize(), 3}} {
		res, stats, err := Run(view.NewTable(), tc.g, countFactory, Options{Shards: tc.shards})
		if err == nil || res != nil || stats != nil {
			t.Errorf("Shards %d over n=%d: result %v, stats %v, err %v; want only an error", tc.shards, tc.g.N(), res, stats, err)
		}
	}
}

// TestShardedContextCancel checks the supervisor honors cancellation.
func TestShardedContextCancel(t *testing.T) {
	g := graph.Ring(16)
	f := func(simID, deg int) sim.Decider { return never{} }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunCtx(ctx, view.NewTable(), g, f, Options{Shards: 2})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
}
