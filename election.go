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
//   - a LOCAL-model simulator with a goroutine-per-node engine.
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

	// Streaming (map-free, single-slab) constructors, bit-identical to
	// their Builder-based counterparts above — the entry points for
	// million-node instances, where the Builder's per-edge map
	// bookkeeping would exhaust memory before refinement starts.
	RandomConnectedStream = graph.RandomConnectedStream
	ShufflePortsStream    = graph.ShufflePortsStream
	TorusStream           = graph.TorusStream
	HypercubeStream       = graph.HypercubeStream
	GridStream            = graph.GridStream
)

// Engine selects how the partition-level quantities — the election
// index φ, feasibility, and the stable partition — are computed.
type Engine int

const (
	// EnginePart is the view-free partition-refinement engine
	// (internal/part): zero interning, zero hashing, O(n+m) per depth.
	// It is the default and scales to graphs two orders of magnitude
	// larger than the view path.
	EnginePart Engine = iota
	// EngineView is the legacy interned-view refinement
	// (view.Refinement). Both engines are bit-identical (pinned by the
	// equivalence property tests in internal/part); EngineView remains
	// selectable for cross-checking and profiling comparisons.
	EngineView
)

// System owns the shared view-interning table used by the oracle and the
// simulated nodes, plus the engine choice for partition-level
// computations. It is safe for concurrent use. The table is created on
// first use: purely partition-level workloads (ElectionIndex, Feasible,
// StablePartition under EnginePart) never allocate interning state.
type System struct {
	tabOnce sync.Once
	tab     *view.Table
	engine  Engine
}

// NewSystem returns a fresh System using the view-free partition engine.
func NewSystem() *System { return NewSystemWith(EnginePart) }

// NewSystemWith returns a fresh System computing φ, feasibility and
// stable partitions with the given engine.
func NewSystemWith(e Engine) *System {
	return &System{engine: e}
}

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
// refinement depth (EnginePart only; the legacy view engine is a
// cross-checking fixture and runs uninterrupted).
func (s *System) ElectionIndexCtx(ctx context.Context, g *Graph) (phi int, feasible bool, err error) {
	if s.engine == EngineView {
		phi, feasible = view.ElectionIndex(s.table(), g)
		return phi, feasible, nil
	}
	return part.ElectionIndexCtx(ctx, g)
}

// StablePartitionCtx is StablePartition with a cancellation checkpoint
// per refinement depth (EnginePart only).
func (s *System) StablePartitionCtx(ctx context.Context, g *Graph) (classes []int, depth int, err error) {
	if s.engine == EngineView {
		classes, depth = view.StablePartition(s.table(), g)
		return classes, depth, nil
	}
	return part.StablePartitionCtx(ctx, g)
}

// Feasible reports whether leader election is at all possible in g.
func (s *System) Feasible(g *Graph) bool {
	if s.engine == EngineView {
		return view.Feasible(s.table(), g)
	}
	return part.Feasible(g)
}

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

// SimEngine selects the synchronous round engine for a run. All engines
// are observationally identical (same Outputs, Rounds, Time, Messages);
// they differ only in how a round is realized.
type SimEngine int

const (
	// SimBSP is the default: the bulk-synchronous class-sharing engine
	// (sim.RunBSP) — one part.Refiner step and one interned view per
	// view class per round, Decide sweep over a worker pool. It is the
	// engine that carries end-to-end elections to 100k-node graphs.
	SimBSP SimEngine = iota
	// SimSequential is the per-node deterministic loop, kept as the
	// reference the class-sharing engine is pinned against.
	SimSequential
)

// Options configures a simulation run. The zero value selects the
// class-sharing bulk-synchronous engine with a generous round budget;
// the Concurrent/Async flags override Engine with the message-passing
// realizations (goroutine per node, event-driven asynchrony), and
// Shards > 1 with the crash-tolerant sharded BSP engine.
type Options struct {
	Engine     SimEngine  // synchronous engine: SimBSP (default) or SimSequential
	Workers    int        // BSP decide-sweep workers; 0 = GOMAXPROCS
	Concurrent bool       // one goroutine per node, channel message passing
	Wire       bool       // serialize every message to bits (concurrent only)
	Async      bool       // asynchronous network + time-stamp synchronizer
	AsyncSeed  int64      // message-delay seed for Async runs
	Delay      DelayModel // Async delay adversary; nil = uniform (0,1]
	MaxRounds  int        // 0 means a default proportional to the graph size

	// Shards, when > 1, runs the synchronous rounds on the sharded
	// crash-tolerant BSP engine (internal/sim/shard): each shard owns a
	// contiguous node range and exchanges only boundary class ids per
	// round. Outputs, Rounds, Time and Messages are bit-identical to the
	// single-process engine. Ignored by the Concurrent/Async/Sequential
	// realizations.
	Shards int
	// ShardFaults, when non-nil (and Shards > 1), wraps the boundary
	// transport in a fault injector with this schedule — drops, dups,
	// reorders, delays, link cuts and whole-shard crashes; see
	// NewFaultInjector and the shard fault categories. The run must
	// still produce bit-identical outputs or fail with ShardStuckError.
	ShardFaults *FaultInjector
	// ShardSeed drives the sharded engine's retry-backoff jitter.
	ShardSeed int64
	// ShardTransport, when non-nil (and Shards > 1), carries the
	// boundary traffic instead of the default in-process channel
	// transport — e.g. a NewShardNetGroup mesh of loopback TCP or unix
	// sockets. ShardFaults, when also set, wraps whichever transport
	// is in effect.
	ShardTransport ShardTransport
	// ShardJournal, when non-nil (and Shards > 1), records per-round
	// checkpoints and boundary payloads instead of the default
	// in-memory journal — e.g. a NewShardFileJournal directory whose
	// fsync-before-rename commits survive kill -9.
	ShardJournal ShardJournal

	// Context, when non-nil, bounds the run: the BSP engine checks it
	// at every round barrier and the asynchronous engine per logical
	// round (and periodically between events), so a deadline or cancel
	// aborts a runaway simulation cleanly instead of only erroring at
	// the MaxRounds budget. Nil means context.Background(). The
	// sequential and concurrent reference engines ignore it — they are
	// pinning fixtures, not serving paths.
	Context context.Context
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

// StuckError is the asynchronous engine's typed diagnosis of a run that
// could not complete: the round budget tripped or the network quiesced
// with nodes undecided. It carries the stuck nodes' rounds and the
// pending-event count, so services and tests can branch on the failure
// shape instead of parsing a message (errors.As-able).
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
// resends. Returned on Result.ShardStats when Options.Shards > 1.
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
	Outputs    [][]int // per-node port sequences (p1, q1, ...)
	Rounds     []int   // per-node decision rounds
	Messages   int     // total messages exchanged
	WireBits   int     // total bits on the wire (Wire mode only)
	ClassViews int     // representative views interned (SimBSP/Async)

	// Async-only schedule measurements: the virtual time at which the
	// last node decided and the maximum observed logical-round spread
	// between the fastest node and the slowest undecided one.
	VirtualTime float64
	MaxSkew     int

	// ShardStats carries the sharded engine's crash/recovery accounting
	// (Options.Shards > 1 only; nil otherwise).
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
	var res *sim.Result
	var err error
	virtualTime, maxSkew := 0.0, 0
	var shardStats *ShardStats
	switch {
	case o.Async:
		var ar *sim.AsyncResult
		ar, err = sim.RunAsyncCtx(ctx, s.table(), g, f, maxRounds, o.AsyncSeed, o.Delay)
		if ar != nil {
			res = &ar.Result
			virtualTime, maxSkew = ar.VirtualTime, ar.MaxSkew
		}
	case o.Concurrent:
		res, err = sim.RunConcurrent(s.table(), g, f, maxRounds, o.Wire)
	case o.Engine == SimSequential:
		res, err = sim.RunSequential(s.table(), g, f, maxRounds)
	case o.Shards > 1:
		opt := shard.Options{Shards: o.Shards, MaxRounds: maxRounds, Seed: o.ShardSeed,
			Transport: o.ShardTransport, Journal: o.ShardJournal}
		if o.ShardFaults != nil {
			inner := o.ShardTransport
			if inner == nil {
				inner = shard.NewChanTransport(o.Shards)
			}
			opt.Transport = shard.NewFaultTransport(inner, o.ShardFaults)
		}
		res, shardStats, err = shard.RunCtx(ctx, s.table(), g, f, opt)
	default:
		res, err = sim.RunBSPCtx(ctx, s.table(), g, f, maxRounds, o.Workers)
	}
	if err != nil {
		return nil, err
	}
	leader, err := sim.Verify(g, res.Outputs)
	if err != nil {
		return nil, fmt.Errorf("election failed verification: %w", err)
	}
	return &Result{
		Leader: leader, Time: res.Time, AdviceBits: adviceLen,
		Outputs: res.Outputs, Rounds: res.Rounds,
		Messages: res.Messages, WireBits: res.WireBits,
		ClassViews:  res.ClassViews,
		VirtualTime: virtualTime, MaxSkew: maxSkew,
		ShardStats: shardStats,
	}, nil
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
