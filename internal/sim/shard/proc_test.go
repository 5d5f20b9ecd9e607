package shard

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// goWorkers runs RunProc with each worker as a goroutine instead of a
// process: every incarnation gets a fresh view.Table (so view shipping
// is really exercised — no shared interning) and a fresh NetTransport
// on fixed unix addresses, sharing one journal, exactly the state a
// worker process would have. chaos, if non-nil, wraps incarnation 0 of
// a shard's transport (restarts run clean, mirroring cmd/shardd's
// rate-clauses-only discipline).
func goWorkers(t *testing.T, g *graph.Graph, shards int, jr Journal,
	chaos func(shard int) *faults.Injector) (*sim.Result, *Stats, error) {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, shards)
	for s := range addrs {
		addrs[s] = filepath.Join(dir, fmt.Sprintf("d%d.sock", s))
	}
	var wg sync.WaitGroup
	start := func(shard, inc int, ctrlAddr string) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
			RunWorker(WorkerConfig{ //nolint:errcheck // crash exits are the test's point
				Shard: shard, Inc: inc, Graph: g, Shards: shards,
				Factory: countFactory, Table: view.NewTable(),
				Transport: tr, Journal: jr,
				CtrlNetwork: "unix", CtrlAddr: ctrlAddr,
			})
		}()
		return nil
	}
	res, stats, err := RunProc(context.Background(), g, ProcOptions{
		Shards: shards, Network: "unix", Listen: filepath.Join(dir, "ctrl.sock"),
		Start: start,
	})
	wg.Wait()
	return res, stats, err
}

// TestRunProcDifferential drives the full proc wire — socket control
// plane, socket data plane, per-worker tables, view shipping — and
// checks the run is bit-identical to RunBSP.
func TestRunProcDifferential(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid45":   graph.Grid(4, 5),
		"random60": graph.RandomConnected(60, 45, 11),
	} {
		want, err := sim.RunBSP(view.NewTable(), g, countFactory, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3} {
			got, stats, err := goWorkers(t, g, shards, NewMemJournal(), nil)
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
// the worker, and the replay — against a FileJournal on disk, resolved
// through re-shipped view bodies — must keep the outputs bit-identical.
func TestRunProcCrashRestart(t *testing.T) {
	g := graph.RandomConnected(60, 45, 11)
	want, err := sim.RunBSP(view.NewTable(), g, countFactory, sim.DefaultMaxRounds(g), 0)
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
	got, stats, err := goWorkers(t, g, shards, fj, chaos)
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
	_, _, err := goWorkers(t, g, 3, jr, nil)
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
	if _, _, err := RunProc(context.Background(), g, ProcOptions{Shards: 1, Start: func(int, int, string) error { return nil }}); err == nil {
		t.Error("RunProc accepted a single shard")
	}
	if _, _, err := RunProc(context.Background(), g, ProcOptions{Shards: 2}); err == nil {
		t.Error("RunProc accepted a nil Start hook")
	}
	if _, _, err := RunProc(context.Background(), g, ProcOptions{Shards: 2, Network: "unix",
		Start: func(int, int, string) error { return nil }}); err == nil {
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
		Start: func(shard, inc int, ctrlAddr string) error { return nil },
	})
	if err == nil {
		t.Fatal("canceled proc run returned nil error")
	}
}

// TestRunProcUnderChaos is the chaos differential of workers that own
// their tables: every incarnation interns into a fresh table, so the
// view leg — closure walks, body journaling, re-interning on replay —
// runs under the seeded drop/dup/reorder/delay/crash schedules of the
// in-process suite (whose shards share one table and send ids only),
// and the outputs must not move by a bit.
func TestRunProcUnderChaos(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid45":   graph.Grid(4, 5),
		"random60": graph.RandomConnected(60, 45, 11),
	} {
		want, err := sim.RunBSP(view.NewTable(), g, countFactory, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				inj := SeededChaos(seed, shards)
				got, stats, err := goWorkers(t, g, shards, NewMemJournal(), func(int) *faults.Injector { return inj })
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

// TestRunProcLateRegistration: a worker whose Hello arrives after the
// supervisor began stopping — a restarted incarnation connecting as the
// run ends — is closed, not registered; the stop had already closed
// every registered conn and waits for their readers, so a conn
// registered then would keep RunProc waiting forever.
func TestRunProcLateRegistration(t *testing.T) {
	ps := &procSuper{conns: map[int]net.Conn{}}
	ps.stopping.Store(true)
	conn, peer := net.Pipe()
	defer peer.Close()
	if ps.register(1, conn) {
		t.Fatal("a conn registered after the stop began")
	}
	if len(ps.conns) != 0 {
		t.Fatalf("conns = %v, want none", ps.conns)
	}
	if _, err := conn.Write([]byte{0}); err == nil {
		t.Fatal("the late conn was left open")
	}
}
