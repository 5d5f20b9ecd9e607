// Package election is a complete implementation of deterministic leader
// election with advice in anonymous networks, reproducing
//
//	Yoann Dieudonné and Andrzej Pelc,
//	"Impact of Knowledge on Election Time in Anonymous Networks",
//	SPAA 2017 (arXiv:1604.05023).
//
// Networks are simple connected graphs whose nodes are anonymous but
// whose edges carry a local port number at each endpoint. Leader election
// means every node outputs a port sequence describing a simple path to a
// common node, the leader. The package provides:
//
//   - the graph model and generators (NewBuilder, Ring, Clique, ...);
//   - augmented truncated views and the election index φ(G)
//     (ElectionIndex, Feasible);
//   - the oracle advice of Theorem 3.1 and the minimum-time election
//     algorithm Elect (ComputeAdvice, RunMinTime);
//   - the large-time algorithms Generic(x) and Election1..4 of Section 4
//     (RunGeneric, RunMilestone, RunFullMap, RunDPlusPhi);
//   - every lower-bound family of the paper (see families.go);
//   - a LOCAL-model simulator with one run-options type: Options names
//     one Realization of the synchronous rounds (BSP, Async, Sharded or
//     Goroutines), and every realization elects identically.
//
// A System owns the view-interning state; create one per workload with
// NewSystem and use it for all operations on related graphs.
package election

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/advice"
	"repro/internal/algorithms"
	"repro/internal/bits"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/view"
)

// Graph is an anonymous port-labeled network (see internal/graph).
type Graph = graph.Graph

// Builder assembles a Graph edge by edge.
type Builder = graph.Builder

// Bits is an immutable bit string; advice sizes are Bits lengths.
type Bits = bits.String

// BitsFromString parses a Bits value from a "0101" textual form.
var BitsFromString = bits.New

// Advice is the decoded oracle advice of Algorithm ComputeAdvice.
type Advice = advice.Advice

// Re-exported generators.
var (
	NewBuilder        = graph.NewBuilder
	Ring              = graph.Ring
	Path              = graph.Path
	Clique            = graph.Clique
	Star              = graph.Star
	CompleteBipartite = graph.CompleteBipartite
	Grid              = graph.Grid
	Hypercube         = graph.Hypercube
	Lollipop          = graph.Lollipop
	RandomConnected   = graph.RandomConnected
	ShufflePorts      = graph.ShufflePorts
	Isomorphic        = graph.Isomorphic
	Torus             = graph.Torus
	BinaryTree        = graph.BinaryTree
	Caterpillar       = graph.Caterpillar
	Wheel             = graph.Wheel
	WheelWithTail     = graph.WheelWithTail
	Broom             = graph.Broom
)

// System owns the shared view-interning table used by the oracle and the
// simulated nodes. It is safe for concurrent use. The table is created on
// first use: partition-level workloads (ElectionIndex, Feasible,
// StablePartition) run on the view-free refinement of internal/part and
// never allocate interning state.
type System struct {
	tabOnce sync.Once
	tab     *view.Table
}

// NewSystem returns a fresh System.
func NewSystem() *System { return &System{} }

// table returns the lazily-created view-interning table.
func (s *System) table() *view.Table {
	s.tabOnce.Do(func() { s.tab = view.NewTable() })
	return s.tab
}

// ElectionIndex returns φ(g) and whether g is feasible (Proposition 2.1):
// φ is the smallest depth at which the augmented truncated views of all
// nodes are distinct, and is the minimum time in which leader election
// can be performed when the map of g is known.
func (s *System) ElectionIndex(g *Graph) (phi int, feasible bool) {
	phi, feasible, _ = s.ElectionIndexCtx(context.Background(), g)
	return phi, feasible
}

// ElectionIndexCtx is ElectionIndex with a cancellation checkpoint per
// refinement depth.
func (s *System) ElectionIndexCtx(ctx context.Context, g *Graph) (phi int, feasible bool, err error) {
	return part.ElectionIndexCtx(ctx, g)
}

// StablePartitionCtx is StablePartition with a cancellation checkpoint
// per refinement depth.
func (s *System) StablePartitionCtx(ctx context.Context, g *Graph) (classes []int, depth int, err error) {
	return part.StablePartitionCtx(ctx, g)
}

// Feasible reports whether leader election is at all possible in g.
func (s *System) Feasible(g *Graph) bool { return part.Feasible(g) }

// ComputeAdvice runs the oracle of Theorem 3.1 and returns the advice
// both decoded and encoded; the encoded length is O(n log n) bits.
func (s *System) ComputeAdvice(g *Graph) (*Advice, Bits, error) {
	return s.ComputeAdviceCtx(context.Background(), g)
}

// ComputeAdviceCtx is ComputeAdvice under a context: the oracle checks
// for cancellation at every depth of its quotient walk and before the
// final labels, so a per-request timeout (the advice service's,
// internal/serve) actually stops oracle work.
func (s *System) ComputeAdviceCtx(ctx context.Context, g *Graph) (*Advice, Bits, error) {
	o := advice.NewOracle(s.table())
	a, err := o.ComputeAdviceCtx(ctx, g)
	if err != nil {
		return nil, Bits{}, err
	}
	return a, a.Encode(), nil
}

// Options configures a simulation run. The zero value runs the
// class-sharing bulk-synchronous engine with the algorithm's default
// round budget.
type Options struct {
	// Realization is how the synchronous LOCAL rounds are carried out;
	// nil means BSP{}. Every realization yields the same Outputs,
	// Rounds and Time (DESIGN.md §5).
	Realization Realization
	// MaxRounds bounds the run; 0 means a default proportional to the
	// graph size (sim.DefaultMaxRounds), or the algorithm's own bound.
	// Exceeding it fails with a *StuckError on every realization.
	MaxRounds int
	// Context, when non-nil, bounds the run: BSP and Sharded check it
	// at every round barrier, and Async at its BSP run's round barriers,
	// then per logical round of its schedule and periodically between
	// events, so a deadline or cancel aborts a runaway simulation
	// cleanly instead of only erroring at the MaxRounds budget. Nil
	// means context.Background(). Goroutines ignores it.
	Context context.Context
}

// Realization is one execution of the paper's synchronous LOCAL rounds:
// BSP, Async, Sharded or Goroutines. The set is closed (the method is
// unexported), so a run names exactly one realization and every field
// it sets is one that realization reads.
type Realization interface {
	// realize runs the rounds and fills res's realization-specific
	// fields (VirtualTime, MaxSkew, ShardStats).
	realize(ctx context.Context, tab *view.Table, g *Graph, f sim.Factory, maxRounds int, res *Result) (*sim.Result, error)
}

// BSP is the default realization: the bulk-synchronous class-sharing
// engine (sim.RunBSP) — one interned view per view class per round and
// a parallel Decide sweep. It carries end-to-end elections to 100k-node
// graphs.
type BSP struct {
	Workers int // decide-sweep workers; 0 = GOMAXPROCS
}

func (b BSP) realize(ctx context.Context, tab *view.Table, g *Graph, f sim.Factory, maxRounds int, _ *Result) (*sim.Result, error) {
	return sim.RunBSPCtx(ctx, tab, g, f, maxRounds, b.Workers)
}

// Async runs the rounds on an asynchronous network bridged by the
// time-stamp synchronizer (sim.RunAsync). Under the synchronizer a
// message's content depends only on its round stamp, so the run takes
// its decisions and logical rounds from one BSP run — Elect on labels —
// and replays them on the schedule, which also yields Result.Messages
// (the delivered messages), Result.VirtualTime and Result.MaxSkew.
type Async struct {
	Seed  int64      // message-delay seed
	Delay DelayModel // delay adversary; nil = uniform (0,1]
}

func (a Async) realize(ctx context.Context, tab *view.Table, g *Graph, f sim.Factory, maxRounds int, res *Result) (*sim.Result, error) {
	ar, err := sim.RunAsyncCtx(ctx, tab, g, f, maxRounds, a.Seed, a.Delay)
	if err != nil {
		return nil, err
	}
	res.VirtualTime, res.MaxSkew = ar.VirtualTime, ar.MaxSkew
	return &ar.Result, nil
}

// Sharded runs the rounds on the crash-tolerant sharded BSP engine
// (internal/sim/shard): each of Shards contiguous node ranges sends its
// peers one label per boundary node per round. Elect runs on its own
// labels; a program that reads views runs through the engine's view
// adapter, whose labels are view ids in the System's table. Outputs,
// Rounds, Time and Messages are bit-identical to BSP's; the run also
// reports Result.ShardStats.
type Sharded struct {
	// Shards is the number of node ranges; it must be at least 2.
	Shards int
	// Transport carries the boundary traffic; nil means an in-process
	// channel mesh. NewShardNetGroup builds one over real sockets.
	Transport ShardTransport
	// Journal records per-round checkpoints and boundary payloads; nil
	// means in memory. NewShardFileJournal survives kill -9.
	Journal ShardJournal
	// Faults, when non-nil, wraps the transport in a fault injector with
	// this schedule — drops, dups, reorders, delays, link cuts and
	// whole-shard crashes (see the ShardFault* categories). The run must
	// still produce bit-identical outputs or fail with ShardStuckError.
	Faults *FaultInjector
	// Seed drives the retry-backoff jitter.
	Seed int64
}

func (sh Sharded) realize(ctx context.Context, tab *view.Table, g *Graph, f sim.Factory, maxRounds int, res *Result) (*sim.Result, error) {
	if sh.Shards < 2 {
		return nil, fmt.Errorf("election: Sharded needs at least 2 shards, got %d", sh.Shards)
	}
	opt := shard.Options{Shards: sh.Shards, MaxRounds: maxRounds, Seed: sh.Seed,
		Transport: sh.Transport, Journal: sh.Journal}
	if sh.Faults != nil {
		inner := sh.Transport
		if inner == nil {
			inner = shard.NewChanTransport(sh.Shards)
		}
		opt.Transport = shard.NewFaultTransport(inner, sh.Faults)
	}
	r, stats, err := shard.RunCtx(ctx, tab, g, f, opt)
	res.ShardStats = stats
	return r, err
}

// Goroutines runs one goroutine per node with channel message passing
// (sim.RunConcurrent). With Wire, every message is serialized to bits
// and re-interned on arrival, and Result.WireBits counts them; only
// B^r(v) information ever crosses an edge. Wire is exponential in the
// round number and meant for small graphs. Options.Context is ignored.
type Goroutines struct {
	Wire bool
}

func (w Goroutines) realize(_ context.Context, tab *view.Table, g *Graph, f sim.Factory, maxRounds int, _ *Result) (*sim.Result, error) {
	return sim.RunConcurrent(tab, g, f, maxRounds, w.Wire)
}

// DelayModel is the asynchronous engine's adversary: it assigns a
// virtual in-flight time to every message (see internal/sim/delay.go).
// Decisions and logical rounds are invariant across models; virtual
// time and round skew are not.
type DelayModel = sim.DelayModel

// The delay models of the asynchronous engine, re-exported.
type (
	// UniformDelay draws delays uniformly from (0, 1] (the default).
	UniformDelay = sim.UniformDelay
	// ExponentialDelay draws memoryless delays with a given mean.
	ExponentialDelay = sim.ExponentialDelay
	// ParetoDelay draws heavy-tailed Pareto delays.
	ParetoDelay = sim.ParetoDelay
	// FixedEdgeDelay freezes one adversarial latency per directed edge.
	FixedEdgeDelay = sim.FixedEdgeDelay
	// FIFODelay constrains a base model so links deliver in send order.
	FIFODelay = sim.FIFODelay
	// SlowCutDelay starves every edge crossing a node cut.
	SlowCutDelay = sim.SlowCutDelay
)

var (
	// NewUniformDelay returns the default uniform-(0,1] model.
	NewUniformDelay = sim.NewUniformDelay
	// NewSlowCutDelay starves the cut between inCut and its complement.
	NewSlowCutDelay = sim.NewSlowCutDelay
	// DropDelay, returned by an adversarial model, loses the message.
	DropDelay = sim.Drop
)

// DelayModels returns one instance of every delay model, keyed by the
// names that electsim's -delay flag accepts — sim.AllDelayModels, the
// single registry the differential suites and benchmarks iterate.
func DelayModels(g *Graph) map[string]DelayModel { return sim.AllDelayModels(g) }

// StuckError is the typed diagnosis of a run that could not complete:
// the round budget tripped (on every realization) or the asynchronous
// network quiesced with nodes undecided. It carries the undecided
// count and round window (and, on Async, a sample of the stuck nodes and
// the pending-event count), so services and tests can branch on the
// failure shape instead of parsing a message (errors.As-able).
type StuckError = sim.StuckError

// FaultInjector is the countdown-budget / seeded-rate fault schedule
// shared by the store's chaos filesystem and the sharded engine's
// transport: arm a category ("transport.drop", a ShardCrashCat(s), ...)
// with a budget or a rate, and the consumer trips it per operation.
type FaultInjector = faults.Injector

// NewFaultInjector returns an all-pass injector whose rate draws are
// reproducible from seed.
var NewFaultInjector = faults.New

// Shard transport fault categories, and the derived per-shard /
// per-link category constructors.
const (
	ShardFaultDrop    = shard.FaultDrop
	ShardFaultDup     = shard.FaultDup
	ShardFaultReorder = shard.FaultReorder
	ShardFaultDelay   = shard.FaultDelay
)

var (
	// ShardCrashCat names the whole-shard crash category of shard s.
	ShardCrashCat = shard.CrashCat
	// ShardCutCat names the one-way link partition category a→b.
	ShardCutCat = shard.CutCat
	// SeededShardChaos builds a replayable moderate-chaos schedule:
	// drop/dup/reorder/delay rates plus seed-chosen crashes.
	SeededShardChaos = shard.SeededChaos
)

// ShardTransport is the sharded engine's boundary data plane: Send,
// shard-addressed Recv with timeout, per-shard Reset on restart. The
// default is an in-process channel mesh; NewShardNetGroup carries the
// same frames over real sockets.
type ShardTransport = shard.Transport

// ShardJournal is the sharded engine's crash-surviving record of
// per-round checkpoints and boundary payloads, replayed by a restarted
// shard. The default is in-memory (survives injected crashes within a
// process); NewShardFileJournal survives kill -9.
type ShardJournal = shard.Journal

// ShardNetGroup is a fully-connected mesh of per-shard socket
// endpoints over loopback TCP or unix sockets; Close it after the run.
type ShardNetGroup = shard.NetGroup

var (
	// NewShardNetGroup builds a ShardNetGroup: network is "tcp" or
	// "unix", dir holds unix socket files, inj (optional) injects
	// socket-layer faults.
	NewShardNetGroup = shard.NewNetGroup
	// NewShardFileJournal opens a disk-backed ShardJournal rooted at
	// dir (nil FS means the real filesystem): temp-file, fsync, rename
	// per record, CRC-checked on replay.
	NewShardFileJournal = shard.NewFileJournal
)

// ShardStats reports a sharded run's fault-tolerance economics:
// crashes observed, recoveries completed, total replay time, data
// resends. Returned on Result.ShardStats by the Sharded realization.
type ShardStats = shard.Stats

// ShardStuckError reports that a fault schedule made progress
// impossible (exchange timeout or restart budget exhausted). It wraps
// a *StuckError, so errors.As reaches both types.
type ShardStuckError = shard.ShardStuckError

// Result reports an election outcome.
type Result struct {
	Leader     int     // sim id of the elected node
	Time       int     // rounds until the last node decided
	AdviceBits int     // length of the advice string used
	Outputs    [][]int // per-node port sequences (p1, q1, ...), read-only: entries may share backing arrays
	Rounds     []int   // per-node decision rounds
	Messages   int     // total messages exchanged
	WireBits   int     // total bits on the wire (Goroutines{Wire: true} only)
	ClassViews int     // representative views interned by BSP (Async: its BSP run's); 0 for Elect

	// Async schedule measurements: the virtual time at which the
	// last node decided and the maximum observed logical-round spread
	// between the fastest node and the slowest undecided one.
	VirtualTime float64
	MaxSkew     int

	// ShardStats carries the sharded engine's crash/recovery accounting
	// (Sharded only; nil otherwise).
	ShardStats *ShardStats
}

func (s *System) run(g *Graph, f sim.Factory, adviceLen int, o Options) (*Result, error) {
	maxRounds := o.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds(g)
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	realization := o.Realization
	if realization == nil {
		realization = BSP{}
	}
	res := &Result{AdviceBits: adviceLen}
	r, err := realization.realize(ctx, s.table(), g, f, maxRounds, res)
	if err != nil {
		return nil, err
	}
	res.Leader, err = sim.Verify(g, r.Outputs)
	if err != nil {
		return nil, fmt.Errorf("election failed verification: %w", err)
	}
	res.Time, res.Outputs, res.Rounds = r.Time, r.Outputs, r.Rounds
	res.Messages, res.WireBits, res.ClassViews = r.Messages, r.WireBits, r.ClassViews
	return res, nil
}

// RunMinTime performs the complete Theorem 3.1 pipeline on g: the oracle
// computes O(n log n)-bit advice, every node runs Algorithm Elect, and
// the election completes in exactly φ(g) rounds. The oracle's decoded
// advice is handed to the factory directly — the advice is still encoded
// once to report its bit length (and the encode/decode round trip stays
// pinned by RunElect's tests), but the n deciders don't pay for a
// decode of their own.
func (s *System) RunMinTime(g *Graph, o Options) (*Result, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	a, enc, err := s.ComputeAdviceCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	f := algorithms.NewElectFactoryDecoded(s.table(), a)
	return s.run(g, f, enc.Len(), o)
}

// RunElect runs Algorithm Elect with an externally supplied advice
// string (normally produced by ComputeAdvice).
func (s *System) RunElect(g *Graph, adv Bits, o Options) (*Result, error) {
	f, err := algorithms.NewElectFactory(s.table(), adv)
	if err != nil {
		return nil, err
	}
	return s.run(g, f, adv.Len(), o)
}

// RunGeneric runs Algorithm Generic(x) (Lemma 4.1): correct for any
// x >= φ(g), in time at most D + x + 1, with no other advice. The round
// budget uses the O(n+m) diameter upper bound — a budget only has to
// dominate D + x + 1, and the exact diameter is an all-pairs BFS that
// would wall off this entry point long before the engine's own limits.
func (s *System) RunGeneric(g *Graph, x int, o Options) (*Result, error) {
	if x < 1 {
		return nil, errors.New("election: Generic requires x >= 1")
	}
	if o.MaxRounds == 0 {
		_, hi := g.DiameterBounds()
		o.MaxRounds = hi + x + 2
	}
	return s.run(g, algorithms.NewGenericFactory(s.table(), x), 0, o)
}

// MilestoneAdvice returns the advice string and Generic parameter of
// Algorithm Election_i (i in 1..4, Theorem 4.1) for election index phi.
func MilestoneAdvice(i, phi int) (Bits, int) { return algorithms.ElectionAdvice(i, phi) }

// RunMilestone runs Algorithm Election_i with its Theorem 4.1 advice,
// derived from the true election index of g.
func (s *System) RunMilestone(g *Graph, i int, o Options) (*Result, error) {
	phi, ok := s.ElectionIndex(g)
	if !ok {
		return nil, errors.New("election: graph is infeasible")
	}
	adv, p := algorithms.ElectionAdvice(i, phi)
	f, err := algorithms.NewElectionFactory(s.table(), i, adv)
	if err != nil {
		return nil, err
	}
	if o.MaxRounds == 0 {
		if p > 1<<20 {
			return nil, fmt.Errorf("election: milestone %d parameter %d too large to simulate", i, p)
		}
		_, hi := g.DiameterBounds()
		o.MaxRounds = hi + p + 2
	}
	return s.run(g, f, adv.Len(), o)
}

// RunFullMap runs the Proposition 2.1 algorithm: every node is given an
// isomorphic map of g and elects in exactly φ(g) rounds with no advice
// string (the map itself is the knowledge).
func (s *System) RunFullMap(g *Graph, o Options) (*Result, error) {
	f, _, err := algorithms.NewFullMapFactory(s.table(), g)
	if err != nil {
		return nil, err
	}
	return s.run(g, f, 0, o)
}

// RunDPlusPhi runs the algorithm of the remark after Theorem 4.1: nodes
// receive (D, φ) as advice and elect in exactly D + φ rounds. This is
// the one entry point that semantically needs the exact diameter (it is
// part of the advice); the memoized Diameter makes the second use for
// the round budget free.
func (s *System) RunDPlusPhi(g *Graph, o Options) (*Result, error) {
	phi, ok := s.ElectionIndex(g)
	if !ok {
		return nil, errors.New("election: graph is infeasible")
	}
	adv := algorithms.DPlusPhiAdvice(g.Diameter(), phi)
	f, err := algorithms.NewDPlusPhiFactory(s.table(), adv)
	if err != nil {
		return nil, err
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = g.Diameter() + phi + 2
	}
	return s.run(g, f, adv.Len(), o)
}

// Verify checks an election outcome against the paper's correctness
// condition and returns the leader.
func Verify(g *Graph, outputs [][]int) (int, error) { return sim.Verify(g, outputs) }

// ComputeNaiveAdvice runs the strawman oracle that Section 3's
// introduction rejects: it ships every depth-φ view explicitly.
// maxBits caps the output (0 = no cap); exceeding it returns an error,
// which for deep election indices is the expected outcome.
func (s *System) ComputeNaiveAdvice(g *Graph, maxBits int) (Bits, error) {
	o := advice.NewOracle(s.table())
	na, err := o.ComputeNaiveAdvice(g, maxBits)
	if err != nil {
		return Bits{}, err
	}
	return na.Encode(), nil
}

// RunNaiveMinTime elects with the naive explicit-view advice — same φ
// rounds as RunMinTime, vastly larger advice. It exists as the baseline
// the trie-based oracle is compared against.
func (s *System) RunNaiveMinTime(g *Graph, maxBits int, o Options) (*Result, error) {
	enc, err := s.ComputeNaiveAdvice(g, maxBits)
	if err != nil {
		return nil, err
	}
	f, err := algorithms.NewNaiveElectFactory(s.table(), enc)
	if err != nil {
		return nil, err
	}
	return s.run(g, f, enc.Len(), o)
}

// RunTreeElect runs the advice-free tree election algorithm: every node
// reconstructs the tree from its view and stops at its eccentricity, so
// election completes by round D. It errors (via the round budget) on
// non-trees — the contrast with Proposition 4.1.
func (s *System) RunTreeElect(g *Graph, o Options) (*Result, error) {
	if o.MaxRounds == 0 {
		_, hi := g.DiameterBounds()
		o.MaxRounds = hi + 2
	}
	return s.run(g, algorithms.NewTreeElectFactory(s.table()), 0, o)
}

// StablePartition returns the partition of nodes into classes of equal
// infinite views (Yamashita–Kameda) and the depth at which refinement
// stabilized; the graph is feasible iff every class is a singleton.
func (s *System) StablePartition(g *Graph) (classes []int, depth int) {
	classes, depth, _ = s.StablePartitionCtx(context.Background(), g)
	return classes, depth
}
