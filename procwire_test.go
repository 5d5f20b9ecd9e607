package election

// Real-process differential for the multi-process sharded deployment
// (DESIGN.md §12): the election pipeline supervised by shard.RunProc
// over actual shardd worker processes — graph and advice staged as
// files, boundary labels over loopback sockets, journals on disk —
// must stay bit-identical to the single-process BSP engine, clean,
// under seeded chaos schedules, and across a SIGKILL of a live worker
// mid-round.
import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

var (
	sharddOnce sync.Once
	sharddBin  string
	sharddErr  error
)

// buildShardd compiles the worker binary once per test-binary run, into
// a temp dir that deliberately outlives any single test (every
// proc-wire test shares the artifact).
func buildShardd(tb testing.TB) string {
	tb.Helper()
	sharddOnce.Do(func() {
		dir, err := os.MkdirTemp("", "shardd-bin-*")
		if err != nil {
			sharddErr = err
			return
		}
		bin := filepath.Join(dir, "shardd")
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/shardd").CombinedOutput()
		if err != nil {
			sharddErr = fmt.Errorf("build shardd: %v\n%s", err, out)
			return
		}
		sharddBin = bin
	})
	if sharddErr != nil {
		tb.Fatal(sharddErr)
	}
	return sharddBin
}

// procHarness stages one multi-process run: graph and advice files,
// data-plane addresses, journal dir, and the Start hook that spawns
// shardd processes (tracked so tests can SIGKILL them and cleanup can
// reap leftovers).
type procHarness struct {
	tb                             testing.TB
	g                              *Graph
	bin, dir                       string
	graphPath, advPath, journalDir string
	network                        string
	shards                         int
	addrs                          []string
	chaosSpec                      string
	chaosBase                      int64
	roundTimeout                   time.Duration // 0 = engine default; raise for n=100k-scale exchanges

	mu   sync.Mutex
	cmds map[int][]*exec.Cmd // shard → incarnations, in start order
}

func newProcHarness(tb testing.TB, g *Graph, adv Bits, shards int, network, chaosSpec string, chaosBase int64) *procHarness {
	tb.Helper()
	h := &procHarness{tb: tb, g: g, bin: buildShardd(tb), network: network,
		shards: shards, chaosSpec: chaosSpec, chaosBase: chaosBase, cmds: map[int][]*exec.Cmd{}}
	// Short staging path: unix socket addresses live here and must fit
	// the 108-byte sockaddr_un limit (t.TempDir paths can exceed it).
	dir, err := os.MkdirTemp("", "procwire-*")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { os.RemoveAll(dir) })
	tb.Cleanup(h.killAll) // runs before the dir removal
	h.dir = dir
	h.graphPath = filepath.Join(dir, "graph.bin")
	if err := graph.SaveBinaryFile(g, h.graphPath); err != nil {
		tb.Fatal(err)
	}
	h.advPath = filepath.Join(dir, "advice.txt")
	if err := os.WriteFile(h.advPath, []byte(adv.String()), 0o644); err != nil {
		tb.Fatal(err)
	}
	h.journalDir = filepath.Join(dir, "journal")
	h.addrs = make([]string, shards)
	for s := range h.addrs {
		if network == "unix" {
			h.addrs[s] = filepath.Join(dir, fmt.Sprintf("d%d.sock", s))
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		h.addrs[s] = ln.Addr().String()
		ln.Close()
	}
	return h
}

// start is the shard.RunProc hook: spawn one shardd incarnation.
func (h *procHarness) start(shardIdx, inc int, ctrlAddr string) (<-chan struct{}, error) {
	args := []string{
		"-shard", strconv.Itoa(shardIdx), "-shards", strconv.Itoa(h.shards), "-inc", strconv.Itoa(inc),
		"-graph", h.graphPath, "-advice", h.advPath,
		"-network", h.network, "-sup", ctrlAddr, "-peers", strings.Join(h.addrs, ","),
		"-journal", h.journalDir,
	}
	if h.roundTimeout > 0 {
		args = append(args, "-round-timeout", h.roundTimeout.String())
	}
	if h.chaosSpec != "" {
		args = append(args, "-chaos", h.chaosSpec,
			"-chaos-seed", strconv.FormatInt(h.chaosBase^int64(shardIdx)*0x9E3779B9, 10))
	}
	cmd := exec.Command(h.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.cmds[shardIdx] = append(h.cmds[shardIdx], cmd)
	h.mu.Unlock()
	exited := make(chan struct{})
	go func() {
		cmd.Wait() //nolint:errcheck // reaped for the zombie; a registered worker's exit status travels on the ctrl conn
		close(exited)
	}()
	return exited, nil
}

// run supervises the staged workers to completion.
func (h *procHarness) run() (*sim.Result, *shard.Stats, error) {
	listen := "127.0.0.1:0"
	if h.network == "unix" {
		listen = filepath.Join(h.dir, "ctrl.sock")
	}
	return shard.RunProc(context.Background(), h.g, shard.ProcOptions{
		Shards: h.shards, Network: h.network, Listen: listen, Start: h.start,
	})
}

// killAll SIGKILLs every worker this harness ever started; normal runs
// have already-exited processes and the kill is a no-op.
func (h *procHarness) killAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, incs := range h.cmds {
		for _, cmd := range incs {
			if cmd.Process != nil {
				cmd.Process.Kill() //nolint:errcheck // best-effort reaping
			}
		}
	}
}

// killAfterCheckpoint SIGKILLs the victim shard's newest incarnation
// once its checkpoint for round lands on disk — proof the worker is
// live and mid-run. The buffered channel reports whether a kill
// happened; cancel stops the polling.
func (h *procHarness) killAfterCheckpoint(victim, round int) (<-chan bool, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	killed := make(chan bool, 1)
	go func() {
		target := filepath.Join(h.journalDir, fmt.Sprintf("s%d", victim), fmt.Sprintf("ck-%d.rec", round))
		for ctx.Err() == nil {
			if _, err := os.Stat(target); err == nil {
				h.mu.Lock()
				incs := h.cmds[victim]
				var proc *os.Process
				if len(incs) > 0 {
					proc = incs[len(incs)-1].Process
				}
				h.mu.Unlock()
				if proc != nil {
					proc.Kill() //nolint:errcheck // SIGKILL, no second chances
					killed <- true
				}
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return killed, cancel
}

// requireSameProcRun asserts a multi-process run against the in-process
// election reference: same Time, Messages, per-node Rounds and Outputs,
// and the outputs must verify to the same leader.
func requireSameProcRun(tb testing.TB, label string, g *Graph, ref *Result, res *sim.Result) {
	tb.Helper()
	if res.Time != ref.Time {
		tb.Errorf("%s: time=%d, reference has %d", label, res.Time, ref.Time)
	}
	if res.Messages != ref.Messages {
		tb.Errorf("%s: messages=%d, reference has %d", label, res.Messages, ref.Messages)
	}
	if !reflect.DeepEqual(res.Rounds, ref.Rounds) {
		tb.Errorf("%s: per-node rounds differ from the reference", label)
	}
	if !reflect.DeepEqual(res.Outputs, ref.Outputs) {
		tb.Errorf("%s: per-node outputs differ from the reference", label)
	}
	leader, err := sim.Verify(g, res.Outputs)
	if err != nil {
		tb.Errorf("%s: outputs fail verification: %v", label, err)
	} else if leader != ref.Leader {
		tb.Errorf("%s: leader=%d, reference elected %d", label, leader, ref.Leader)
	}
}

// TestProcWireDifferential runs the full minimum-time pipeline across
// real shardd worker processes on every feasible family — tcp for 2
// shards, unix for 3, so both socket families stay covered — against
// the single-process BSP reference.
func TestProcWireDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	for name, g := range equivalenceFamilies() {
		s := NewSystem()
		if !s.Feasible(g) {
			continue
		}
		_, enc, err := s.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := s.RunElect(g, enc, Options{})
		if err != nil {
			t.Fatalf("%s/bsp: %v", name, err)
		}
		for _, shards := range shardCounts {
			network := "tcp"
			if shards == 3 {
				network = "unix"
			}
			label := fmt.Sprintf("%s/%s/shards=%d", name, network, shards)
			h := newProcHarness(t, g, enc, shards, network, "", 0)
			res, stats, err := h.run()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameProcRun(t, label, g, ref, res)
			if stats.Crashes != 0 || stats.Recoveries != 0 {
				t.Errorf("%s: clean run stats = %+v", label, stats)
			}
		}
	}
}

// TestProcWireChaos replays seeded chaos schedules — protocol faults
// and socket faults, injected inside the worker processes via -chaos —
// over real loopback connections on a subset of families.
func TestProcWireChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	families := equivalenceFamilies()
	for _, name := range []string{"hairy", "gk-member", "grid"} {
		g := families[name]
		s := NewSystem()
		if !s.Feasible(g) {
			t.Fatalf("%s: chaos subset family is infeasible", name)
		}
		_, enc, err := s.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := s.RunElect(g, enc, Options{})
		if err != nil {
			t.Fatalf("%s/bsp: %v", name, err)
		}
		const shards = 3
		for _, network := range []string{"tcp", "unix"} {
			for seed := int64(1); seed <= 2; seed++ {
				spec := shard.SeededChaosSpec(seed, shards)
				label := fmt.Sprintf("%s/%s/chaos=%d [%s]", name, network, seed, spec)
				h := newProcHarness(t, g, enc, shards, network, spec, seed)
				res, stats, err := h.run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameProcRun(t, label, g, ref, res)
				// A crash in the final rounds can finish without the
				// replacement's Recovered frame, so only the upper
				// bound is deterministic.
				if stats.Recoveries > stats.Crashes {
					t.Errorf("%s: %d recoveries exceed %d crashes", label, stats.Recoveries, stats.Crashes)
				}
			}
		}
	}
}

// TestProcWireKillRestart is the crash-recovery acceptance test: a live
// shardd worker is SIGKILLed from outside mid-run — no injected exit,
// no warning — and the supervisor must detect the dead control
// connection, restart the worker with -inc bumped, replay its disk
// journal, and finish bit-identically.
func TestProcWireKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	// The hairy ring from electsim's generator at n=64 runs for ~31
	// rounds — a wide window to catch the victim past its round-2
	// checkpoint and kill it with most of the run still ahead.
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = i % 4
	}
	sizes[0] = 5
	g := BuildHairyRing(sizes).G
	s := NewSystem()
	if !s.Feasible(g) {
		t.Fatal("hairy ring is infeasible")
	}
	_, enc, err := s.ComputeAdvice(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.RunElect(g, enc, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const victim = 1
	h := newProcHarness(t, g, enc, 3, "tcp", "", 0)
	killed, stopPoll := h.killAfterCheckpoint(victim, 2)
	defer stopPoll()

	res, stats, err := h.run()
	stopPoll()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("run finished before the victim's round-2 checkpoint appeared; nothing was killed")
	}
	requireSameProcRun(t, "kill-restart", g, ref, res)
	if stats.Crashes < 1 || stats.Recoveries < 1 {
		t.Errorf("kill-restart stats = %+v, want at least one crash and one recovery", stats)
	}
	h.mu.Lock()
	victimIncs := len(h.cmds[victim])
	h.mu.Unlock()
	if victimIncs < 2 {
		t.Errorf("victim shard was started %d times, want a restart", victimIncs)
	}
}
