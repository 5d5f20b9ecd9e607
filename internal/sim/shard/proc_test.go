package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// goWorkers runs RunProc with each worker as a goroutine instead of a
// process: every incarnation runs RunWorker with f's deciders and a
// fresh NetTransport on fixed unix addresses, sharing one journal,
// exactly the state a worker process would have. chaos, if non-nil,
// wraps incarnation 0 of a shard's transport (restarts run clean,
// mirroring cmd/shardd's rate-clauses-only discipline).
func goWorkers(t *testing.T, g *graph.Graph, shards int, f sim.Factory, jr Journal,
	chaos func(shard int) *faults.Injector) (*sim.Result, *Stats, error) {
	t.Helper()
	var wg sync.WaitGroup
	defer wg.Wait()
	dir := t.TempDir()
	return RunProc(context.Background(), g, ProcOptions{
		Shards: shards, Network: "unix", Listen: filepath.Join(dir, "ctrl.sock"),
		Start: goStart(t, g, shards, f, jr, chaos, dir, &wg, nil),
	})
}

// goStart is goWorkers' Start hook: it runs incarnation inc of shard as
// a goroutine tracked by wg, handing RunWorker's error to done when
// done is non-nil, and closes the returned channel when it exits.
func goStart(t *testing.T, g *graph.Graph, shards int, f sim.Factory, jr Journal,
	chaos func(shard int) *faults.Injector, dir string, wg *sync.WaitGroup,
	done func(shard, inc int, err error)) func(shard, inc int, ctrlAddr string) (<-chan struct{}, error) {
	addrs := make([]string, shards)
	for s := range addrs {
		addrs[s] = filepath.Join(dir, fmt.Sprintf("d%d.sock", s))
	}
	return func(shard, inc int, ctrlAddr string) (<-chan struct{}, error) {
		exited := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(exited)
			nt, err := NewNetTransport(shard, "unix", addrs, nil)
			if err != nil {
				t.Errorf("worker %d/inc %d: %v", shard, inc, err)
				return
			}
			defer nt.Close()
			var tr Transport = nt
			if chaos != nil && inc == 0 {
				if inj := chaos(shard); inj != nil {
					tr = NewFaultTransport(nt, inj)
				}
			}
			err = RunWorker(WorkerConfig{
				Shard: shard, Inc: inc, Graph: g, Shards: shards, Factory: f,
				Transport: tr, Journal: jr,
				CtrlNetwork: "unix", CtrlAddr: ctrlAddr,
			})
			if done != nil {
				done(shard, inc, err)
			}
		}()
		return exited, nil
	}
}

// TestRunProcDifferential drives the full proc wire — socket control
// plane, socket data plane, labels between workers — and checks the run
// is bit-identical to RunBSP.
func TestRunProcDifferential(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid45":   graph.Grid(4, 5),
		"random60": graph.RandomConnected(60, 45, 11),
	} {
		want, err := sim.RunBSP(view.NewTable(), g, countLabelFactory, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3} {
			got, stats, err := goWorkers(t, g, shards, countLabelFactory, NewMemJournal(), nil)
			label := fmt.Sprintf("%s/shards=%d", name, shards)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSame(t, label, want, got)
			if stats.Crashes != 0 || stats.Recoveries != 0 {
				t.Errorf("%s: clean proc run reports %d crashes, %d recoveries", label, stats.Crashes, stats.Recoveries)
			}
		}
	}
}

// TestRunProcCrashRestart injects a crash into every worker's first
// incarnation: the supervisor must see each control conn die, restart
// the worker, and the replay against a FileJournal on disk must keep
// the outputs bit-identical.
func TestRunProcCrashRestart(t *testing.T) {
	g := graph.RandomConnected(60, 45, 11)
	want, err := sim.RunBSP(view.NewTable(), g, countLabelFactory, sim.DefaultMaxRounds(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	fj := NewFileJournal(nil, t.TempDir())
	chaos := func(s int) *faults.Injector {
		inj := faults.New(int64(31 + s))
		inj.ArmAfter(CrashCat(s), 3+2*s, 1)
		return inj
	}
	got, stats, err := goWorkers(t, g, shards, countLabelFactory, fj, chaos)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "proc-crash-restart", want, got)
	if stats.Crashes < shards {
		t.Errorf("only %d crashes detected, want %d", stats.Crashes, shards)
	}
	if stats.Recoveries != stats.Crashes {
		t.Errorf("%d crashes but %d recoveries", stats.Crashes, stats.Recoveries)
	}
	if stats.Recoveries > 0 && stats.RecoveryTime <= 0 {
		t.Error("recoveries with zero recovery time")
	}
}

// failCheckpointJournal fails one shard's checkpoint at a chosen round
// — the worker must report the failure as an Err frame and the
// supervisor must surface it, not hang the barrier.
type failCheckpointJournal struct {
	Journal
	shard, round int
}

func (j *failCheckpointJournal) Checkpoint(shard int, rec Record) error {
	if shard == j.shard && rec.Round == j.round {
		return fmt.Errorf("disk on fire")
	}
	return j.Journal.Checkpoint(shard, rec)
}

// TestRunProcWorkerError pins the Err-frame path: an unrecoverable
// worker failure aborts the whole run with the worker's error text.
func TestRunProcWorkerError(t *testing.T) {
	g := graph.Grid(4, 5)
	jr := &failCheckpointJournal{Journal: NewMemJournal(), shard: 1, round: 1}
	_, _, err := goWorkers(t, g, 3, countLabelFactory, jr, nil)
	if err == nil {
		t.Fatal("run with a failing journal returned nil error")
	}
	if !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v, want the worker-1 journal failure surfaced", err)
	}
}

// TestRunProcValidation pins the option checks.
func TestRunProcValidation(t *testing.T) {
	g := graph.Ring(8)
	noStart := func(int, int, string) (<-chan struct{}, error) { return nil, nil }
	if _, _, err := RunProc(context.Background(), g, ProcOptions{Shards: 1, Start: noStart}); err == nil {
		t.Error("RunProc accepted a single shard")
	}
	if _, _, err := RunProc(context.Background(), g, ProcOptions{Shards: 2}); err == nil {
		t.Error("RunProc accepted a nil Start hook")
	}
	if _, _, err := RunProc(context.Background(), g, ProcOptions{Shards: 2, Network: "unix",
		Start: noStart}); err == nil {
		t.Error("RunProc accepted a unix control plane without a listen path")
	}
}

// TestRunProcContextCancel checks the supervisor honors cancellation
// and aborts the workers.
func TestRunProcContextCancel(t *testing.T) {
	g := graph.Ring(16)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunProc(ctx, g, ProcOptions{
		Shards: 2, Network: "unix", Listen: filepath.Join(dir, "ctrl.sock"),
		Start: func(shard, inc int, ctrlAddr string) (<-chan struct{}, error) { return nil, nil },
	})
	if err == nil {
		t.Fatal("canceled proc run returned nil error")
	}
}

// TestRunProcUnderChaos is the chaos differential of worker processes:
// every incarnation runs its own transport and shares only the journal,
// under the seeded drop/dup/reorder/delay/crash schedules of the
// in-process suite, and the outputs must not move by a bit.
func TestRunProcUnderChaos(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid45":   graph.Grid(4, 5),
		"random60": graph.RandomConnected(60, 45, 11),
	} {
		want, err := sim.RunBSP(view.NewTable(), g, countLabelFactory, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				inj := SeededChaos(seed, shards)
				got, stats, err := goWorkers(t, g, shards, countLabelFactory, NewMemJournal(), func(int) *faults.Injector { return inj })
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
}

// TestRunProcRefusesViewDeciders: a worker process cannot run a view
// decider — its view ids would mean nothing to its peers — so RunWorker
// returns a typed *NotLabelProgramError naming the shard's first node,
// and sends its text to the supervisor as an Err frame.
func TestRunProcRefusesViewDeciders(t *testing.T) {
	g := graph.Grid(4, 5)
	ctrl := filepath.Join(t.TempDir(), "ctrl.sock")
	ln, err := net.Listen("unix", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := make(chan Message, 2)
	go func() {
		defer close(frames)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for range 2 {
			m, err := readFrame(br)
			if err != nil {
				return
			}
			frames <- m
		}
	}()
	err = RunWorker(WorkerConfig{
		Shard: 1, Graph: g, Shards: 2, Factory: countFactory,
		Transport: NewChanTransport(2), Journal: NewMemJournal(),
		CtrlNetwork: "unix", CtrlAddr: ctrl,
	})
	var nl *NotLabelProgramError
	if !errors.As(err, &nl) {
		t.Fatalf("err = %v, want *NotLabelProgramError", err)
	}
	if first := newTopology(g, 2).ranges[1][0]; nl.Shard != 1 || nl.Node != first {
		t.Errorf("refusal names shard %d, node %d; want 1, %d", nl.Shard, nl.Node, first)
	}
	var kinds []Kind
	var note string
	for m := range frames {
		kinds = append(kinds, m.Kind)
		note = m.Note
	}
	if len(kinds) != 2 || kinds[0] != KindHello || kinds[1] != KindErr || note != err.Error() {
		t.Errorf("supervisor got frames %v with note %q, want hello then err %q", kinds, note, err)
	}
}

// TestRunProcExitBeforeHello: an incarnation that exits without ever
// registering has no control conn whose loss could be seen, so its exit
// counts as its crash. Here every restarted incarnation starts nothing
// and exits at once: each is one crash, and the run must spend its
// restart budget and fail at once instead of waiting forever.
func TestRunProcExitBeforeHello(t *testing.T) {
	g := graph.Grid(4, 5)
	var wg sync.WaitGroup
	defer wg.Wait()
	dir := t.TempDir()
	crash := func(s int) *faults.Injector {
		inj := faults.New(1)
		if s == 0 {
			inj.SetRate(CrashCat(0), 1)
		}
		return inj
	}
	base := goStart(t, g, 2, countLabelFactory, NewMemJournal(), crash, dir, &wg, nil)
	start := func(shard, inc int, ctrlAddr string) (<-chan struct{}, error) {
		if inc >= 1 {
			exited := make(chan struct{})
			close(exited)
			return exited, nil
		}
		return base(shard, inc, ctrlAddr)
	}
	began := time.Now()
	_, stats, err := RunProc(context.Background(), g, ProcOptions{
		Shards: 2, Network: "unix", Listen: filepath.Join(dir, "ctrl.sock"), Start: start,
	})
	if took := time.Since(began); took > time.Second {
		t.Errorf("run took %v to give up, want well under a second", took)
	}
	requireRestartBudget(t, err)
	if stats.Crashes != maxRestarts+1 {
		t.Errorf("crashes = %d, want %d: one per dead incarnation", stats.Crashes, maxRestarts+1)
	}
}

// TestRunProcLateRegistration: a worker whose Hello arrives after the
// supervisor began stopping — a restarted incarnation connecting as the
// run ends — is closed, not registered; the stop had already closed
// every registered conn and waits for their readers, so a conn
// registered then would keep RunProc waiting forever.
func TestRunProcLateRegistration(t *testing.T) {
	ps := &procSuper{conns: map[int]net.Conn{}, life: map[[2]int]incState{}}
	ps.stopping.Store(true)
	conn, peer := net.Pipe()
	defer peer.Close()
	if ps.register(1, 0, conn) {
		t.Fatal("a conn registered after the stop began")
	}
	if len(ps.conns) != 0 {
		t.Fatalf("conns = %v, want none", ps.conns)
	}
	if _, err := conn.Write([]byte{0}); err == nil {
		t.Fatal("the late conn was left open")
	}
}
