package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// Options configures a sharded run. The zero value of every field has a
// sensible default; only Shards is required (> 1).
type Options struct {
	// Shards is the number of contiguous node ranges (clamped to n);
	// a run needs at least 2.
	Shards int
	// Transport is the boundary data plane (default: an in-process
	// ChanTransport; wrap it in FaultTransport for chaos, or use
	// NetGroup / NetTransport for real sockets).
	Transport Transport
	// Journal is the crash-surviving checkpoint store (default: a
	// fresh MemJournal; use FileJournal for a disk-backed one).
	Journal Journal
	// MaxRounds bounds the election (default sim.DefaultMaxRounds).
	MaxRounds int
	// RoundTimeout bounds one boundary exchange; a shard that cannot
	// complete its exchange within it reports ShardStuckError
	// (default 10s).
	RoundTimeout time.Duration
	// RetryBase and RetryMax shape the exponential backoff between
	// data resends (defaults 200µs and 250ms); each wait is jittered
	// by a seeded uniform factor in [0.5, 1.5). The cap must exceed
	// the transport's worst-case ack latency: if every unacked leg is
	// resent faster than the receiver can drain it, large boundary
	// frames degenerate into a resend storm that starves the acks it
	// is waiting for.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed drives the retry jitter (chaos schedules are seeded
	// separately, on the FaultTransport's injector).
	Seed int64
}

// maxRestarts bounds supervisor restarts across a run; beyond it the
// run fails with ShardStuckError.
const maxRestarts = 16

func (o Options) maxRounds(g *graph.Graph) int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return sim.DefaultMaxRounds(g)
}

func (o Options) roundTimeout() time.Duration {
	if o.RoundTimeout > 0 {
		return o.RoundTimeout
	}
	return 10 * time.Second
}

func (o Options) retryBase() time.Duration {
	if o.RetryBase > 0 {
		return o.RetryBase
	}
	return 200 * time.Microsecond
}

func (o Options) retryMax() time.Duration {
	if o.RetryMax > 0 {
		return o.RetryMax
	}
	return 250 * time.Millisecond
}

// Stats reports the run's fault-tolerance economics. Result.Messages
// stays the paper's synchronous measure (2m per round, equal to
// RunBSP's); the transport-level traffic and the recovery work live
// here.
type Stats struct {
	Shards       int
	Rounds       int           // final round (max decide round)
	Crashes      int           // injected shard deaths observed
	Recoveries   int           // replays completed by restarted shards
	RecoveryTime time.Duration // total wall time spent replaying
	Retries      int           // data messages resent beyond the first attempt
}

// MeanRecovery returns the average replay time per completed recovery.
func (s *Stats) MeanRecovery() time.Duration {
	if s.Recoveries == 0 {
		return 0
	}
	return s.RecoveryTime / time.Duration(s.Recoveries)
}

// ShardStuckError reports that the fault schedule made progress
// impossible: a shard's boundary exchange timed out, or the restart
// budget ran out. It extends sim.StuckError — errors.As reaches the
// embedded *sim.StuckError through Unwrap; that error is a stall at
// Round, with MaxRounds zero because no round budget tripped.
type ShardStuckError struct {
	Shard  int
	Round  int
	Reason string
	Stuck  *sim.StuckError
}

// Error names the shard, round and reason with the undecided count.
func (e *ShardStuckError) Error() string {
	return fmt.Sprintf("shard: shard %d stuck at round %d (%s) with %d nodes undecided",
		e.Shard, e.Round, e.Reason, e.Stuck.Undecided)
}

func (e *ShardStuckError) Unwrap() error {
	if e.Stuck == nil {
		return nil
	}
	return e.Stuck
}

// topology is the static sharding geometry — a pure function of
// (graph, shard count) that every participant (in-process workers,
// worker processes, the supervisor) computes identically, so payload
// alignment needs no negotiation.
type topology struct {
	g      *graph.Graph
	shards int
	ranges [][2]int
	// peers[s] lists, ascending, the shards s exchanges with;
	// sendList[s][p] the ascending global ids of s's nodes adjacent to
	// p's range — identically the ghost slots of p owned by s, so both
	// endpoints agree on payload alignment without negotiation.
	peers    [][]int
	sendList []map[int][]int32
}

func newTopology(g *graph.Graph, shards int) *topology {
	n := g.N()
	t := &topology{g: g, shards: shards}
	t.ranges = make([][2]int, shards)
	for s := 0; s < shards; s++ {
		t.ranges[s] = [2]int{s * n / shards, (s + 1) * n / shards}
	}
	own := make([]int, n)
	for s := 0; s < shards; s++ {
		for v := t.ranges[s][0]; v < t.ranges[s][1]; v++ {
			own[v] = s
		}
	}
	// recvSets[p][o]: nodes of shard o that p's nodes neighbor — p's
	// ghosts owned by o. sendList[o][p] is the same list.
	recvSets := make([]map[int]map[int32]bool, shards)
	for s := range recvSets {
		recvSets[s] = map[int]map[int32]bool{}
	}
	for v := 0; v < n; v++ {
		p := own[v]
		for j := 0; j < g.Deg(v); j++ {
			u := g.At(v, j).To
			if o := own[u]; o != p {
				set := recvSets[p][o]
				if set == nil {
					set = map[int32]bool{}
					recvSets[p][o] = set
				}
				set[int32(u)] = true
			}
		}
	}
	t.sendList = make([]map[int][]int32, shards)
	t.peers = make([][]int, shards)
	for s := range t.sendList {
		t.sendList[s] = map[int][]int32{}
	}
	for p := 0; p < shards; p++ {
		for o, set := range recvSets[p] {
			list := make([]int32, 0, len(set))
			for id := range set {
				list = append(list, id)
			}
			sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
			t.sendList[o][p] = list
		}
		for o := range recvSets[p] {
			t.peers[p] = append(t.peers[p], o)
		}
		sort.Ints(t.peers[p])
	}
	return t
}

// Run executes the synchronous protocol sharded over opt.Shards ranges
// and is observationally identical to sim.RunBSP on every input —
// same Outputs, Rounds, Time and Messages — under any fault schedule
// the run survives (ClassViews is per-process bookkeeping and is not
// reproduced). When every decider f makes is a sim.LabelProgram — the
// rule RunBSP applies — the workers run them on labels and tab is
// unused; otherwise they run each decider through the view adapter,
// which interns into tab (adapter.go).
func Run(tab *view.Table, g *graph.Graph, f sim.Factory, opt Options) (*sim.Result, *Stats, error) {
	return RunCtx(context.Background(), tab, g, f, opt)
}

// control-plane message kinds (supervisor → worker).
type ctrlKind uint8

const (
	ctrlProceed ctrlKind = iota + 1 // barrier for Round granted
	ctrlStop                        // all nodes decided: exit cleanly
	ctrlAbort                       // run failed elsewhere: exit now
)

type ctrlMsg struct {
	kind  ctrlKind
	round int
}

// report kinds (worker → supervisor).
type reportKind uint8

const (
	reportRound     reportKind = iota + 1 // sweep of Round done
	reportCrashed                         // incarnation died to an injected crash
	reportRecovered                       // replay finished, shard is live again
	reportErr                             // unrecoverable worker error
)

type report struct {
	kind      reportKind
	shard     int
	round     int
	decisions []Decision
	remaining int           // local nodes still undecided
	retries   int           // resend-counter delta (proc wire only)
	dur       time.Duration // reportRecovered: replay wall time
	err       error         // reportErr
}

// coord is the supervisor's protocol brain, shared verbatim by the
// in-process engine (RunCtx) and the multi-process supervisor
// (RunProc): barrier accounting, duplicate-report handling for
// replaying shards, restart budgeting, and the paper's 2m-per-round
// message measure. Only the delivery mechanics differ — grant and
// restart are plugged in by the caller.
type coord struct {
	topo      *topology
	opt       Options
	maxRounds int
	stats     *Stats
	res       *sim.Result

	lastRound      []int
	remainingBy    []int
	barrier        map[int]int // round → shards reported
	restarts       int
	highestGranted int

	grant   func(shard, round int)
	restart func(shard, incarnation int)
}

func newCoord(topo *topology, opt Options, stats *Stats, res *sim.Result) *coord {
	c := &coord{topo: topo, opt: opt, maxRounds: opt.maxRounds(topo.g), stats: stats, res: res,
		lastRound: make([]int, topo.shards), remainingBy: make([]int, topo.shards),
		barrier: map[int]int{}, highestGranted: -1}
	for s := range c.lastRound {
		c.lastRound[s] = -1
		c.remainingBy[s] = topo.ranges[s][1] - topo.ranges[s][0]
	}
	return c
}

func (c *coord) globalStuck(shard, round int, reason string) error {
	undecided := 0
	for _, rem := range c.remainingBy {
		undecided += rem
	}
	return &ShardStuckError{Shard: shard, Round: round, Reason: reason,
		Stuck: &sim.StuckError{Undecided: undecided, MinRound: round, MaxRound: round}}
}

// handle processes one report. done means the run completed cleanly
// (every node decided); a non-nil err means it failed.
func (c *coord) handle(rep report) (done bool, err error) {
	switch rep.kind {
	case reportErr:
		return false, rep.err
	case reportCrashed:
		c.stats.Crashes++
		c.restarts++
		if c.restarts > maxRestarts {
			return false, c.globalStuck(rep.shard, c.lastRound[rep.shard],
				fmt.Sprintf("restart budget of %d exhausted", maxRestarts))
		}
		c.restart(rep.shard, c.restarts)
	case reportRecovered:
		c.stats.Recoveries++
		c.stats.RecoveryTime += rep.dur
	case reportRound:
		c.stats.Retries += rep.retries
		if rep.round <= c.lastRound[rep.shard] {
			// A restarted shard replaying its journal: the round is
			// already counted; re-grant the barrier if it has
			// already completed, else the live barrier covers it.
			if rep.round <= c.highestGranted {
				c.grant(rep.shard, rep.round)
			}
			return false, nil
		}
		for _, d := range rep.decisions {
			c.res.Outputs[d.Node] = d.Output
			c.res.Rounds[d.Node] = d.Round
		}
		c.lastRound[rep.shard] = rep.round
		c.remainingBy[rep.shard] = rep.remaining
		c.barrier[rep.round]++
		if c.barrier[rep.round] < c.topo.shards {
			return false, nil
		}
		delete(c.barrier, rep.round)
		total := 0
		for _, rem := range c.remainingBy {
			total += rem
		}
		if total == 0 {
			return true, nil
		}
		if rep.round >= c.maxRounds {
			return false, &sim.StuckError{MaxRounds: c.maxRounds, Undecided: total,
				MinRound: c.maxRounds, MaxRound: c.maxRounds}
		}
		c.res.Messages += 2 * c.topo.g.M()
		c.highestGranted = rep.round
		for s := 0; s < c.topo.shards; s++ {
			c.grant(s, rep.round)
		}
	}
	return false, nil
}

// engine is the in-process deployment: workers are goroutines, control
// messages are channels, and the transport defaults to a ChanTransport.
type engine struct {
	topo *topology
	f    sim.Factory
	opt  Options
	tr   Transport
	jr   Journal
	// views is the view adapter every worker and every incarnation
	// shares, or nil when the deciders are label programs.
	views *viewLabels

	reports chan report
	ctrl    []chan ctrlMsg
	// halted is the engine-wide kill switch (0 running, else the
	// ctrlKind): checked by every worker poll, so shutdown cannot be
	// missed even if a control channel is full.
	halted  atomic.Int32
	retries atomic.Int64
}

// errHalt is the worker-internal "shut down cleanly" sentinel.
var errHalt = errors.New("shard: halted")

// RunCtx is Run with cancellation: the supervisor aborts every worker
// at the next control-plane touch once ctx is done.
func RunCtx(ctx context.Context, tab *view.Table, g *graph.Graph, f sim.Factory, opt Options) (*sim.Result, *Stats, error) {
	n := g.N()
	shards := min(opt.Shards, n)
	if shards < 2 {
		return nil, nil, fmt.Errorf("shard: a sharded run needs at least 2 shards, got %d over %d nodes", opt.Shards, n)
	}

	e := &engine{topo: newTopology(g, shards), f: f, opt: opt, tr: opt.Transport, jr: opt.Journal}
	if !labelPrograms(g, f) {
		e.views = newViewLabels(tab)
		e.f = e.views.wrap(f)
	}
	if e.tr == nil {
		e.tr = NewChanTransport(shards)
	}
	if e.jr == nil {
		e.jr = NewMemJournal()
	}

	e.reports = make(chan report, 4*shards)
	e.ctrl = make([]chan ctrlMsg, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		e.ctrl[s] = make(chan ctrlMsg, 128)
		wg.Add(1)
		go func(s int) { defer wg.Done(); e.runWorker(s, 0) }(s)
	}

	stats := &Stats{Shards: shards}
	res := &sim.Result{Outputs: make([][]int, n), Rounds: make([]int, n)}
	c := newCoord(e.topo, opt, stats, res)
	c.grant = func(s, round int) { e.ctrl[s] <- ctrlMsg{kind: ctrlProceed, round: round} }
	c.restart = func(s, inc int) {
		// Reset strictly before respawn: the mailbox epoch bump must
		// happen-before the new incarnation's first Recv (see
		// Transport.Reset).
		e.tr.Reset(s)
		wg.Add(1)
		go func() { defer wg.Done(); e.runWorker(s, inc) }()
	}

	shutdown := func(kind ctrlKind) {
		e.halted.Store(int32(kind))
		for s := 0; s < shards; s++ {
			// Best effort nudge; the halted flag is the authority.
			select {
			case e.ctrl[s] <- ctrlMsg{kind: kind}:
			default:
			}
		}
	}
	finish := func(err error) (*sim.Result, *Stats, error) {
		if err != nil {
			shutdown(ctrlAbort)
		}
		// Drain reports while the workers wind down, or a worker blocked
		// on a full reports channel could never observe the halt. Crash
		// and recovery notices in flight at shutdown still count (a
		// crash at the final barrier is a real crash; it just no longer
		// needs a restart).
		workersDone := make(chan struct{})
		go func() { wg.Wait(); close(workersDone) }()
	drain:
		for {
			select {
			case rep := <-e.reports:
				switch rep.kind {
				case reportCrashed:
					stats.Crashes++
				case reportRecovered:
					stats.Recoveries++
					stats.RecoveryTime += rep.dur
				}
			case <-workersDone:
				break drain
			}
		}
		stats.Retries += int(e.retries.Load())
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

	for {
		var rep report
		select {
		case <-ctx.Done():
			res, stats, err := finish(fmt.Errorf("shard: run canceled: %w", ctx.Err()))
			return res, stats, err
		case rep = <-e.reports:
		}
		done, err := c.handle(rep)
		if err != nil {
			return finish(err)
		}
		if done {
			shutdown(ctrlStop)
			return finish(nil)
		}
	}
}

// labelPrograms reports whether f makes every node of g a
// sim.LabelProgram. It drops what f makes: every worker incarnation
// makes its own deciders, which may be stateful.
func labelPrograms(g *graph.Graph, f sim.Factory) bool {
	for v := range g.N() {
		if _, ok := f(v, g.Deg(v)).(sim.LabelProgram); !ok {
			return false
		}
	}
	return true
}

// worker is one shard incarnation: the range's label programs, the
// labels of its nodes and ghosts, and the boundary-protocol state. A
// fresh one is built per restart; everything durable lives in the
// journal and everything shared in the topology — the supervisor
// plumbing (emit, ctrlRecv, halted) is injected, so the same worker
// runs as a goroutine of the in-process engine or as the core of a
// worker process (RunWorker).
type worker struct {
	topo  *topology
	f     sim.Factory
	opt   Options
	tr    Transport
	jr    Journal
	views *viewLabels // the in-process view adapter, or nil

	s    int
	lo   int
	size int
	inc  int

	emit     func(report) error     // deliver a report to the supervisor
	ctrlRecv func() (ctrlMsg, bool) // non-blocking control-message poll
	halted   func() bool            // engine-wide kill switch
	retries  *atomic.Int64

	progs     []sim.LabelProgram
	done      []bool
	remaining int

	// labels[i] is local node lo+i's label at the current round;
	// labels[size+s] is ghost slot s's, filled by exchange each round.
	// step computes the next round's local labels into next.
	labels []int32
	next   []int32
	// off is the range's window of g's CSR offsets: local node i's
	// half-edges are g's off[i] .. off[i+1]-1. src holds, for each of
	// them in that order, the labels slot of its far end, so node i's
	// are src[off[i]-off[0] : off[i+1]-off[0]].
	off []int32
	src []int32
	buf []int32 // 2 × the largest local degree: one step's arguments

	// Ghost slot s holds global node ghosts[s]; the slots of peer p are
	// that peer's send list to this shard.
	ghosts   []int32
	ghostSeg map[int][2]int // peer → (first slot, count) of its ghosts

	// pending[(round,peer)] marks boundary payloads already journaled,
	// so exchanges consume journal-first and duplicates only re-ack.
	pending map[[2]int][]int32

	// hwm is the highest round this shard has ever reported (across
	// incarnations — seeded from the journal on restart). Peers can be
	// in exchange R only after barrier R, which needs our report of R,
	// so hwm bounds the round of any legitimate incoming data — a
	// replaying shard must accept data up to hwm, not just up to the
	// round it is currently replaying.
	hwm int

	seq uint64
	rng *rand.Rand
}

// NotLabelProgramError reports a decider a worker cannot run: workers
// run sim.LabelProgram's recursion only, and only RunCtx wraps other
// deciders in the view adapter. RunWorker returns it for a view
// decider.
type NotLabelProgramError struct {
	Shard int
	Node  int // global id of the first node whose decider is not one
}

func (e *NotLabelProgramError) Error() string {
	return fmt.Sprintf("shard: shard %d: node %d's decider is not a sim.LabelProgram, and worker processes run label programs only",
		e.Shard, e.Node)
}

func (e *engine) newWorker(s, incarnation int) *worker {
	return &worker{
		topo: e.topo, f: e.f, opt: e.opt, tr: e.tr, jr: e.jr, views: e.views,
		s: s, inc: incarnation, lo: e.topo.ranges[s][0], size: e.topo.ranges[s][1] - e.topo.ranges[s][0],
		emit: func(rep report) error { e.reports <- rep; return nil },
		ctrlRecv: func() (ctrlMsg, bool) {
			select {
			case c := <-e.ctrl[s]:
				return c, true
			default:
				return ctrlMsg{}, false
			}
		},
		halted:  func() bool { return e.halted.Load() != 0 },
		retries: &e.retries,
	}
}

func (e *engine) runWorker(s, incarnation int) {
	w := e.newWorker(s, incarnation)
	defer func() {
		if p := recover(); p != nil {
			e.reports <- report{kind: reportErr, shard: s, err: fmt.Errorf("shard: shard %d panicked: %v", s, p)}
		}
	}()
	err := w.init()
	if err == nil {
		err = w.run()
	}
	if err != nil {
		var crash *CrashError
		if errors.As(err, &crash) {
			e.reports <- report{kind: reportCrashed, shard: s}
			return
		}
		e.reports <- report{kind: reportErr, shard: s, err: err}
	}
}

// init builds the range's programs and its half-edge map, and sets
// every local node's round-0 label: its degree.
func (w *worker) init() error {
	g := w.topo.g
	w.progs = make([]sim.LabelProgram, w.size)
	maxDeg := 0
	for i := range w.size {
		v := w.lo + i
		p, ok := w.f(v, g.Deg(v)).(sim.LabelProgram)
		if !ok {
			return &NotLabelProgramError{Shard: w.s, Node: v}
		}
		w.progs[i] = p
		maxDeg = max(maxDeg, g.Deg(v))
	}
	w.done = make([]bool, w.size)
	w.remaining = w.size

	// Ghost slots: per peer in ascending order, the ascending list that
	// peer sends here, so slots ascend by global id.
	w.ghostSeg = map[int][2]int{}
	for _, p := range w.topo.peers[w.s] {
		list := w.topo.sendList[p][w.s]
		w.ghostSeg[p] = [2]int{len(w.ghosts), len(list)}
		w.ghosts = append(w.ghosts, list...)
	}

	off, to, _ := g.CSR()
	w.off = off[w.lo : w.lo+w.size+1]
	w.src = make([]int32, w.off[w.size]-w.off[0])
	for e, nb := range to[w.off[0]:w.off[w.size]] {
		if u := int(nb) - w.lo; u >= 0 && u < w.size {
			w.src[e] = int32(u)
		} else {
			slot, _ := slices.BinarySearch(w.ghosts, nb)
			w.src[e] = int32(w.size + slot)
		}
	}
	w.buf = make([]int32, 2*maxDeg)

	w.pending = map[[2]int][]int32{}
	w.rng = rand.New(rand.NewSource(w.opt.Seed ^ int64(w.s)*0x9E3779B9 ^ int64(w.inc)<<32))

	w.labels = make([]int32, w.size+len(w.ghosts))
	w.next = make([]int32, w.size)
	for i := range w.size {
		w.labels[i] = int32(g.Deg(w.lo + i))
	}
	return nil
}

// run replays the journal (rounds with checkpoints) and then runs live.
// Replay and live rounds share one loop: a replayed round's exchange is
// served from journaled ghosts and its barrier re-granted by the
// supervisor, so recovery is the live protocol with every wait a cache
// hit.
func (w *worker) run() error {
	restored, err := w.jr.Restore(w.s)
	if err != nil {
		return &JournalError{Shard: w.s, Op: "restore", Err: err}
	}
	for i, rec := range restored.Records {
		if rec.Round != i {
			return &JournalError{Shard: w.s, Op: "restore",
				Err: fmt.Errorf("%w: checkpoint for round %d at position %d", ErrJournalCorrupt, rec.Round, i)}
		}
	}
	for _, gr := range restored.Ghosts {
		w.pending[[2]int{gr.Round, gr.Peer}] = gr.Labels
	}
	replayTo := len(restored.Records)
	w.hwm = replayTo - 1
	start := time.Now()
	recovered := w.inc == 0
	markRecovered := func() error {
		if !recovered {
			recovered = true
			return w.emit(report{kind: reportRecovered, shard: w.s, dur: time.Since(start)})
		}
		return nil
	}
	for r := 0; ; r++ {
		if r == replayTo {
			if err := markRecovered(); err != nil {
				return err
			}
		}
		decs := w.sweep(r)
		if err := w.views.failure(); err != nil {
			return err
		}
		if r < replayTo {
			if err := w.validate(restored.Records[r], decs); err != nil {
				return err
			}
		}
		if err := w.checkpoint(r, decs); err != nil {
			return err
		}
		if r > w.hwm {
			w.hwm = r
		}
		if err := w.emit(report{kind: reportRound, shard: w.s, round: r,
			decisions: decs, remaining: w.remaining}); err != nil {
			return err
		}
		stop, err := w.barrier(r)
		if err != nil {
			return err
		}
		if stop {
			// The run can complete while a restarted incarnation is
			// still mid-replay (e.g. the crash hit an ack send at the
			// final barrier, after the shard's last fresh report). The
			// incarnation is restored as far as the run needed — count
			// the recovery rather than leaving it forever in flight.
			return markRecovered()
		}
		if err := w.exchange(r, r >= replayTo-1); err != nil {
			if errors.Is(err, errHalt) {
				return markRecovered()
			}
			return err
		}
		w.step(r + 1)
	}
}

func (w *worker) sweep(r int) []Decision {
	var decs []Decision
	for i, p := range w.progs {
		if w.done[i] {
			continue
		}
		if out, ok := p.DecideLabel(r, w.labels[i]); ok {
			w.done[i] = true
			w.remaining--
			decs = append(decs, Decision{Node: w.lo + i, Round: r, Output: out})
		}
	}
	return decs
}

// validate pins a replayed round to its checkpoint: a divergence means
// the deciders are not deterministic (or the journal is corrupt), and
// silently proceeding could publish different bits than the crashed
// incarnation already reported.
func (w *worker) validate(rec Record, decs []Decision) error {
	if rec.Remaining != w.remaining || len(rec.Decided) != len(decs) {
		return fmt.Errorf("shard: shard %d replay diverged at round %d: %d remaining / %d decisions, checkpoint has %d / %d",
			w.s, rec.Round, w.remaining, len(decs), rec.Remaining, len(rec.Decided))
	}
	if len(rec.Labels) != w.size {
		return fmt.Errorf("shard: shard %d replay diverged at round %d: %d nodes, checkpoint has %d labels",
			w.s, rec.Round, w.size, len(rec.Labels))
	}
	for i, l := range rec.Labels {
		if w.labels[i] != l {
			return fmt.Errorf("shard: shard %d replay diverged at round %d: node %d label %d, checkpoint has %d",
				w.s, rec.Round, w.lo+i, w.labels[i], l)
		}
	}
	return nil
}

func (w *worker) checkpoint(r int, decs []Decision) error {
	if err := w.jr.Checkpoint(w.s, Record{Round: r, Labels: w.labels[:w.size], Decided: decs, Remaining: w.remaining}); err != nil {
		return &JournalError{Shard: w.s, Op: "checkpoint", Err: err}
	}
	return nil
}

// pollCtrl drains one control message if present. It returns stop=true
// on ctrlStop/ctrlAbort or when the engine-wide halt flag is set; stale
// proceeds (round < want, leftovers consumed by a dead incarnation's
// successor) are dropped.
func (w *worker) pollCtrl(want int) (proceed, stop bool) {
	if w.halted() {
		return false, true
	}
	if c, ok := w.ctrlRecv(); ok {
		switch c.kind {
		case ctrlStop, ctrlAbort:
			return false, true
		case ctrlProceed:
			if c.round >= want {
				return true, false
			}
		}
	}
	return false, false
}

// barrier waits for the supervisor to grant round r, servicing the
// mailbox meanwhile: a peer still retrying an earlier round must get
// its ack even though this shard has moved on, or a single dropped ack
// would wedge both sides. Stale acks are dropped.
func (w *worker) barrier(r int) (stop bool, err error) {
	for {
		proceed, stopped := w.pollCtrl(r)
		if stopped {
			return true, nil
		}
		if proceed {
			return false, nil
		}
		if m, ok := w.tr.Recv(w.s, 200*time.Microsecond); ok && m.Kind == KindData {
			if err := w.acceptData(m); err != nil {
				return false, err
			}
		}
	}
}

// acceptData journals and acks an incoming data message (duplicates
// re-ack without re-journaling; journal strictly before ack, so acked
// data survives a crash). The lockstep protocol permits senders to be
// at most at this shard's report high-water mark.
func (w *worker) acceptData(m Message) error {
	if m.Round > w.hwm {
		return fmt.Errorf("shard: shard %d received round-%d data from shard %d with high-water mark %d", w.s, m.Round, m.From, w.hwm)
	}
	seg, ok := w.ghostSeg[m.From]
	if !ok || len(m.Payload) != seg[1] {
		return fmt.Errorf("shard: shard %d received malformed boundary payload from shard %d (%d labels, want %d)",
			w.s, m.From, len(m.Payload), seg[1])
	}
	key := [2]int{m.Round, m.From}
	if _, have := w.pending[key]; !have {
		labels := append([]int32(nil), m.Payload...)
		if err := w.jr.Ghosts(w.s, GhostRecord{Round: m.Round, Peer: m.From, Labels: labels}); err != nil {
			return &JournalError{Shard: w.s, Op: "ghosts", Err: err}
		}
		w.pending[key] = labels
	}
	return w.tr.Send(Message{From: w.s, To: m.From, Kind: KindAck, Round: m.Round, Seq: m.Seq})
}

// exchange completes round r's boundary swap: every peer's ghost labels
// journaled locally and copied into the ghost slots, and every outgoing
// payload acked. Journaled legs (recovery, or data that arrived early
// during the barrier wait) are served without touching the transport;
// live legs run the seq/ack/retry protocol under the round deadline.
func (w *worker) exchange(r int, live bool) error {
	fill := func(p int) bool {
		labels, ok := w.pending[[2]int{r, p}]
		if ok {
			seg := w.ghostSeg[p]
			copy(w.labels[w.size+seg[0]:w.size+seg[0]+seg[1]], labels)
		}
		return ok
	}
	need := map[int]bool{} // inbound: no journaled payload yet
	for _, p := range w.topo.peers[w.s] {
		if w.ghostSeg[p][1] > 0 && !fill(p) {
			need[p] = true
		}
	}
	unacked := map[int][]int32{}
	if live {
		for _, p := range w.topo.peers[w.s] {
			list := w.topo.sendList[w.s][p]
			if len(list) == 0 {
				continue
			}
			payload := make([]int32, len(list))
			for i, v := range list {
				payload[i] = w.labels[int(v)-w.lo]
			}
			unacked[p] = payload
		}
	} else if len(need) > 0 {
		return fmt.Errorf("shard: shard %d missing journaled ghosts for replayed round %d", w.s, r)
	}

	deadline := time.Now().Add(w.opt.roundTimeout())
	nextSend := time.Now()
	attempt := 0
	for len(need)+len(unacked) > 0 {
		if _, stop := w.pollCtrl(r + 1); stop {
			return errHalt // aborted mid-exchange
		}
		now := time.Now()
		if now.After(deadline) {
			return w.stuck(r, len(need)+len(unacked))
		}
		if !now.Before(nextSend) && len(unacked) > 0 {
			for _, p := range w.topo.peers[w.s] {
				payload, ok := unacked[p]
				if !ok {
					continue
				}
				w.seq++
				m := Message{From: w.s, To: p, Kind: KindData, Round: r, Seq: w.seq, Payload: payload}
				if attempt > 0 {
					// Resends clone: the first delivery (or the journal
					// holding it) must never alias a slice a later send
					// could expose to concurrent readers.
					m = m.Clone()
					w.retries.Add(1)
				}
				if err := w.tr.Send(m); err != nil {
					return err
				}
			}
			backoff := w.opt.retryBase() << uint(attempt)
			if backoff > w.opt.retryMax() || backoff <= 0 {
				backoff = w.opt.retryMax()
			}
			jitter := 0.5 + w.rng.Float64()
			nextSend = now.Add(time.Duration(float64(backoff) * jitter))
			attempt++
		}
		wait := 500 * time.Microsecond
		if len(unacked) > 0 {
			if until := time.Until(nextSend); until < wait {
				wait = until
			}
		}
		if wait <= 0 {
			wait = 50 * time.Microsecond
		}
		m, ok := w.tr.Recv(w.s, wait)
		if !ok {
			continue
		}
		switch m.Kind {
		case KindData:
			if err := w.acceptData(m); err != nil {
				return err
			}
			if m.Round == r && need[m.From] {
				delete(need, m.From)
				fill(m.From)
			}
		case KindAck:
			if m.Round == r { // else a stale ack from an earlier round
				delete(unacked, m.From)
			}
		}
	}
	return nil
}

func (w *worker) stuck(r, pendingLegs int) error {
	stuck := &sim.StuckError{Undecided: w.remaining, MinRound: r, MaxRound: r, Pending: pendingLegs}
	for i := 0; i < w.size && len(stuck.Sample) < 4; i++ {
		if !w.done[i] {
			stuck.Sample = append(stuck.Sample, sim.StuckNode{Node: w.lo + i, Round: r})
		}
	}
	return &ShardStuckError{Shard: w.s, Round: r,
		Reason: fmt.Sprintf("boundary exchange timed out after %v", w.opt.roundTimeout()), Stuck: stuck}
}

// step computes every local node's round-r label from round r−1's, as
// sim.LabelProgram defines it: InitLabel on the node's ports and its
// neighbours' degrees at round 1, StepLabel on its own and its
// neighbours' labels after.
func (w *worker) step(r int) {
	g := w.topo.g
	base := w.off[0]
	for i, p := range w.progs {
		v := w.lo + i
		deg := g.Deg(v)
		if r == 1 {
			remote, nbrDeg := w.buf[:deg], w.buf[deg:2*deg]
			for j := range deg {
				h := g.At(v, j)
				remote[j], nbrDeg[j] = int32(h.RemotePort), int32(g.Deg(h.To))
			}
			w.next[i] = p.InitLabel(remote, nbrDeg)
			continue
		}
		nbr := w.buf[:deg]
		for j, u := range w.src[w.off[i]-base : w.off[i+1]-base] {
			nbr[j] = w.labels[u]
		}
		w.next[i] = p.StepLabel(r, w.labels[i], nbr)
	}
	copy(w.labels, w.next)
}
