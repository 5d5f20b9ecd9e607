package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Multi-process deployment: the supervisor (RunProc) owns the barrier
// and the restart budget exactly as the in-process engine does — it is
// the same coord — but each worker is a separate OS process
// (cmd/shardd running RunWorker) connected by one persistent control
// connection carrying the frames of wire.go: Hello up once, then
// Report/Recovered up and Proceed/Stop/Abort down, Err for
// unrecoverable failures. The data plane between workers is a
// NetTransport per process and never touches the supervisor. Workers
// run label programs only: a label is the same integer in every
// process, so nothing but labels crosses between them.
//
// Crash detection is the connection itself: a control conn that dies
// before the supervisor broadcast Stop (and without a preceding Err
// frame) is a crashed worker — whether the process was SIGKILLed, hit
// an injected CrashError and exited, or lost the conn some other way;
// a worker treats control-conn loss as fatal for the same reason, so
// conn and process die together and the supervisor can restart without
// fencing. An incarnation that exits before its Hello has no conn to
// lose, so the Start hook also hands back its exit, which counts as
// that incarnation's crash. A restarted worker replays its journal and
// re-reports from round 0; the coord's duplicate-report handling
// re-grants replayed barriers, exactly as for in-process restarts.

// ProcOptions configures a multi-process supervisor run.
type ProcOptions struct {
	// Shards is the number of worker processes (> 1).
	Shards int
	// Network is the control plane's listen network: "tcp" or "unix".
	Network string
	// Listen is the control address to bind; "" chooses 127.0.0.1:0
	// for tcp ("unix" requires an explicit socket path).
	Listen string
	// Options carries the engine knobs the supervisor shares with the
	// in-process engine (MaxRounds); Transport, Journal,
	// RoundTimeout and the retry knobs belong to the workers.
	Options Options
	// Start launches the worker process for shard s, incarnation inc,
	// and points it at the control address — typically exec'ing
	// cmd/shardd. Called once per shard at startup and once per
	// restart; it must not block on the worker's lifetime. The
	// returned channel is closed when the incarnation has exited.
	Start func(shard, inc int, ctrlAddr string) (exited <-chan struct{}, err error)
}

// helloTimeout bounds how long an accepted control connection may take
// to identify itself.
const helloTimeout = 10 * time.Second

// procSuper is the supervisor's connection registry.
type procSuper struct {
	mu       sync.Mutex
	conns    map[int]net.Conn    // current control conn per shard
	life     map[[2]int]incState // per (shard, incarnation)
	stopping atomic.Bool

	reports chan report
	done    chan struct{}
}

// incState is how far an incarnation got.
type incState uint8

const (
	incStarted    incState = iota // launched, no Hello registered yet
	incRegistered                 // its Hello registered its control conn
	incDead                       // counted as crashed, or exited before its Hello
)

// register installs conn as the shard's current control connection for
// incarnation inc, closing any predecessor (a restarted worker
// reconnects before the supervisor necessarily noticed the old conn
// die). It closes conn instead and returns false once the run is
// stopping — the stop has already closed every registered conn and
// waits for their readers, so a conn registered after that would never
// be closed — or once the incarnation is dead: a Hello read after its
// sender's exit was counted must not displace the successor's conn.
func (ps *procSuper) register(shard, inc int, conn net.Conn) bool {
	ps.mu.Lock()
	if ps.stopping.Load() || ps.life[[2]int{shard, inc}] == incDead {
		ps.mu.Unlock()
		conn.Close()
		return false
	}
	ps.life[[2]int{shard, inc}] = incRegistered
	old := ps.conns[shard]
	ps.conns[shard] = conn
	ps.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return true
}

// bury reports incarnation inc of shard as one crash and marks it dead,
// unless it is dead already or the run is stopping. An exit (exited)
// of a registered incarnation is left to its control conn, which tells
// a crash from an Err or a clean stop.
func (ps *procSuper) bury(shard, inc int, exited bool) {
	key := [2]int{shard, inc}
	ps.mu.Lock()
	st := ps.life[key]
	if st == incDead || ps.stopping.Load() || (exited && st != incStarted) {
		ps.mu.Unlock()
		return
	}
	ps.life[key] = incDead
	ps.mu.Unlock()
	ps.report(report{kind: reportCrashed, shard: shard})
}

// current reports whether conn is still the shard's registered conn.
func (ps *procSuper) current(shard int, conn net.Conn) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.conns[shard] == conn
}

// sendTo writes one control frame to the shard's current conn; a
// missing or failing conn drops the frame (a dead worker gets its
// grants re-issued when its successor re-reports).
func (ps *procSuper) sendTo(shard int, m Message) {
	ps.mu.Lock()
	conn := ps.conns[shard]
	if conn != nil {
		conn.SetWriteDeadline(time.Now().Add(time.Second)) //nolint:errcheck // deadline on a live conn
		if err := writeFrame(conn, m); err != nil {
			conn.Close()
		}
	}
	ps.mu.Unlock()
}

// report delivers rep unless the run is over.
func (ps *procSuper) report(rep report) {
	select {
	case ps.reports <- rep:
	case <-ps.done:
	}
}

// serveConn owns one accepted control connection: read the Hello,
// register, then translate control frames into supervisor reports. A
// conn dying without Err while it is still current — and the run still
// live — is a crash.
func (ps *procSuper) serveConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(helloTimeout)) //nolint:errcheck // deadline on a live conn
	br := bufio.NewReader(conn)
	first, err := readFrame(br)
	if err != nil || first.Kind != KindHello {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // clear the hello deadline
	shard, inc := first.From, first.Inc
	if !ps.register(shard, inc, conn) {
		return
	}
	sawErr := false
	for {
		m, err := readFrame(br)
		if err != nil {
			break
		}
		switch m.Kind {
		case KindReport:
			ps.report(report{kind: reportRound, shard: shard, round: m.Round,
				decisions: m.Decisions, remaining: m.Remaining, retries: m.Retries})
		case KindRecovered:
			ps.report(report{kind: reportRecovered, shard: shard, dur: m.Dur})
		case KindErr:
			sawErr = true
			ps.report(report{kind: reportErr, shard: shard,
				err: fmt.Errorf("shard: worker %d: %s", shard, m.Note)})
		}
	}
	conn.Close()
	if !sawErr && ps.current(shard, conn) {
		ps.bury(shard, inc, false)
	}
}

// RunProc supervises a multi-process sharded run of the synchronous
// protocol over g and is observationally identical to sim.RunBSP and
// to the in-process Run — same Outputs, Rounds, Time, Messages — under
// any fault schedule the run survives. The supervisor needs only the
// graph's geometry (for the barrier accounting and the paper's
// 2m-per-round message measure); the deciders run in the workers.
func RunProc(ctx context.Context, g *graph.Graph, po ProcOptions) (*sim.Result, *Stats, error) {
	if po.Shards <= 1 {
		return nil, nil, fmt.Errorf("shard: proc run needs at least 2 shards, got %d", po.Shards)
	}
	if po.Start == nil {
		return nil, nil, fmt.Errorf("shard: proc run needs a Start hook")
	}
	network, listen := po.Network, po.Listen
	if network == "" {
		network = "tcp"
	}
	if listen == "" {
		if network != "tcp" {
			return nil, nil, fmt.Errorf("shard: %s control plane needs an explicit -listen address", network)
		}
		listen = "127.0.0.1:0"
	}
	if network == "unix" {
		if err := os.Remove(listen); err != nil && !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("shard: unlink stale control socket: %w", err)
		}
	}
	ln, err := net.Listen(network, listen)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: control listen %s %s: %w", network, listen, err)
	}
	defer ln.Close()
	if network == "unix" {
		defer os.Remove(listen) //nolint:errcheck // best-effort unlink
	}
	ctrlAddr := ln.Addr().String()

	topo := newTopology(g, po.Shards)
	ps := &procSuper{conns: map[int]net.Conn{}, life: map[[2]int]incState{},
		reports: make(chan report, 8*po.Shards), done: make(chan struct{})}
	var connWG sync.WaitGroup
	connWG.Add(1)
	go func() {
		defer connWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connWG.Add(1)
			go func() { defer connWG.Done(); ps.serveConn(conn) }()
		}
	}()

	stats := &Stats{Shards: po.Shards}
	res := &sim.Result{Outputs: make([][]int, g.N()), Rounds: make([]int, g.N())}
	// start launches an incarnation and watches for its exit until the
	// run ends.
	start := func(s, inc int) error {
		exited, err := po.Start(s, inc, ctrlAddr)
		if err != nil {
			return err
		}
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			select {
			case <-exited:
				ps.bury(s, inc, true)
			case <-ps.done:
			}
		}()
		return nil
	}
	c := newCoord(topo, po.Options, stats, res)
	c.grant = func(s, round int) { ps.sendTo(s, Message{Kind: KindProceed, To: s, Round: round}) }
	c.restart = func(s, inc int) {
		if err := start(s, inc); err != nil {
			ps.report(report{kind: reportErr, shard: s, err: fmt.Errorf("shard: restart worker %d: %w", s, err)})
		}
	}

	finish := func(err error) (*sim.Result, *Stats, error) {
		kind := KindStop
		if err != nil {
			kind = KindAbort
		}
		ps.stopping.Store(true)
		ps.mu.Lock()
		for s, conn := range ps.conns {
			conn.SetWriteDeadline(time.Now().Add(time.Second)) //nolint:errcheck // deadline on a live conn
			writeFrame(conn, Message{Kind: kind, To: s})       //nolint:errcheck // best-effort broadcast
			conn.Close()
		}
		ps.mu.Unlock()
		ln.Close()
		close(ps.done) // unblock readers stuck delivering reports
		connWG.Wait()
		if err != nil {
			return nil, stats, err
		}
		for _, r := range res.Rounds {
			if r > res.Time {
				res.Time = r
			}
		}
		stats.Rounds = res.Time
		return res, stats, nil
	}

	for s := 0; s < po.Shards; s++ {
		if err := start(s, 0); err != nil {
			return finish(fmt.Errorf("shard: start worker %d: %w", s, err))
		}
	}
	for {
		var rep report
		select {
		case <-ctx.Done():
			return finish(fmt.Errorf("shard: run canceled: %w", ctx.Err()))
		case rep = <-ps.reports:
		}
		done, err := c.handle(rep)
		if err != nil {
			return finish(err)
		}
		if done {
			return finish(nil)
		}
	}
}

// WorkerConfig configures one worker process (RunWorker). The caller
// builds the transport and journal — NetTransport over the shared
// data-plane address table and a FileJournal on the shard's directory
// in the normal deployment — and RunWorker runs the same worker loop
// the in-process engine uses, with the control plane over a socket.
type WorkerConfig struct {
	Shard int
	Inc   int

	Graph  *graph.Graph
	Shards int
	// Factory must make a sim.LabelProgram for every node of the
	// shard's range; RunWorker refuses any other decider with a
	// *NotLabelProgramError.
	Factory sim.Factory

	Transport Transport
	Journal   Journal
	Options   Options // Seed and the timeout/retry knobs; Shards ignored

	// CtrlNetwork/CtrlAddr locate the supervisor's control listener.
	CtrlNetwork string
	CtrlAddr    string
}

// errCtrlLost marks a worker whose control connection died while the
// run was still live; the process must exit and let the supervisor
// restart a successor.
var errCtrlLost = errors.New("shard: control connection lost")

// IsCtrlLost reports whether err is the worker-fatal loss of the
// control connection (as opposed to an algorithmic failure).
func IsCtrlLost(err error) bool { return errors.Is(err, errCtrlLost) }

// RunWorker runs one shard's worker against a remote supervisor until
// the supervisor stops the run, the worker crashes (a *CrashError
// return — the process should exit nonzero so chaos harnesses can see
// it), or an unrecoverable error occurs (reported to the supervisor as
// an Err frame and returned). A decider that is not a
// sim.LabelProgram is such an error, a *NotLabelProgramError: a view
// id means nothing in another process, so workers run on labels only.
func RunWorker(cfg WorkerConfig) error {
	if cfg.Transport == nil || cfg.Journal == nil {
		return fmt.Errorf("shard: worker needs a transport and a journal")
	}
	network := cfg.CtrlNetwork
	if network == "" {
		network = "tcp"
	}
	conn, err := dialCtrl(network, cfg.CtrlAddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	var writeMu sync.Mutex
	sendCtrl := func(m Message) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // deadline on a live conn
		if err := writeFrame(conn, m); err != nil {
			return fmt.Errorf("%w: %w", errCtrlLost, err)
		}
		return nil
	}
	if err := sendCtrl(Message{Kind: KindHello, From: cfg.Shard, Inc: cfg.Inc}); err != nil {
		return err
	}

	// halted: 0 live, 1 clean stop/abort from the supervisor, 2 conn
	// lost. ctrl carries the grants.
	var halted atomic.Int32
	ctrl := make(chan ctrlMsg, 128)
	go func() {
		br := bufio.NewReader(conn)
		for {
			m, err := readFrame(br)
			if err != nil {
				halted.CompareAndSwap(0, 2)
				return
			}
			switch m.Kind {
			case KindProceed:
				// Blocking send: the worker drains ctrl at every poll, and
				// a dropped grant would wedge the barrier until the round
				// timeout. The goroutine dies with the process if the
				// worker exits first.
				ctrl <- ctrlMsg{kind: ctrlProceed, round: m.Round}
			case KindStop, KindAbort:
				halted.CompareAndSwap(0, 1)
				return
			}
		}
	}()

	topo := newTopology(cfg.Graph, cfg.Shards)
	var retries atomic.Int64
	var reported int64
	w := &worker{
		topo: topo, f: cfg.Factory, opt: cfg.Options, tr: cfg.Transport, jr: cfg.Journal,
		s: cfg.Shard, inc: cfg.Inc, lo: topo.ranges[cfg.Shard][0],
		size: topo.ranges[cfg.Shard][1] - topo.ranges[cfg.Shard][0],
		emit: func(rep report) error {
			switch rep.kind {
			case reportRound:
				// The resend counter is process-local; ship the delta so
				// the supervisor can sum across incarnations.
				total := retries.Load()
				delta := int(total - reported)
				reported = total
				return sendCtrl(Message{Kind: KindReport, From: cfg.Shard, Round: rep.round,
					Decisions: rep.decisions, Remaining: rep.remaining, Retries: delta})
			case reportRecovered:
				return sendCtrl(Message{Kind: KindRecovered, From: cfg.Shard, Dur: rep.dur})
			}
			return nil
		},
		ctrlRecv: func() (ctrlMsg, bool) {
			select {
			case c := <-ctrl:
				return c, true
			default:
				return ctrlMsg{}, false
			}
		},
		halted:  func() bool { return halted.Load() != 0 },
		retries: &retries,
	}
	runErr := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("shard: shard %d panicked: %v", cfg.Shard, p)
			}
		}()
		if err := w.init(); err != nil {
			return err
		}
		return w.run()
	}()
	if runErr == nil {
		if halted.Load() == 2 {
			return fmt.Errorf("shard %d: %w", cfg.Shard, errCtrlLost)
		}
		return nil
	}
	var crash *CrashError
	if errors.As(runErr, &crash) {
		// Die silently: the supervisor sees the conn drop and restarts.
		return runErr
	}
	if IsCtrlLost(runErr) {
		return runErr
	}
	sendCtrl(Message{Kind: KindErr, From: cfg.Shard, Note: runErr.Error()}) //nolint:errcheck // conn may already be gone
	return runErr
}

// dialCtrl dials the supervisor, retrying briefly: workers race the
// supervisor's listener at startup.
func dialCtrl(network, addr string) (net.Conn, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout(network, addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shard: dial control %s %s: %w", network, addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
