// Delay models for the asynchronous engine.
//
// Under the α-synchronizer the *content* of every message is fixed by
// its time-stamp: the round-r message of a node in view class c is
// B^r(c), whatever the schedule (see async.go). The adversary therefore
// controls exactly one thing — the virtual in-flight time of each
// message — and a DelayModel is that adversary. Everything observable
// at the decision level (Outputs, Rounds, Time) is invariant across
// models; what varies is the physical schedule: the virtual completion
// time, the round skew between regions of the graph, and whether the
// network quiesces at all (a model may drop messages).
package sim

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Drop is the delay value that discards a message instead of delivering
// it: an adversarial model returns it to model message loss. A network
// that loses the wrong messages stalls forever — RunAsync reports that
// as a quiescence error with the stuck nodes' rounds.
var Drop = math.Inf(1)

// MaxDelay bounds the finite delays a model may return. It exists to
// keep virtual times inside the range where the calendar queue's
// bucket arithmetic is exact; no plausible adversary needs more.
const MaxDelay = 1e9

// A DelayModel assigns a virtual in-flight time to every message of an
// asynchronous run. Reset is called once at the start of each run with
// the graph and the run's seed; Delay is then called once per message,
// in a deterministic order, with the sender v, the sender's local port
// p, the message's round stamp r, and the virtual send time now. It
// must return a delay in (0, MaxDelay], or Drop to lose the message.
//
// Models may keep per-run state (an RNG, per-edge latencies, FIFO
// horizons) rebuilt in Reset; a model is not safe for use by two
// concurrent runs.
type DelayModel interface {
	Reset(g *graph.Graph, seed int64)
	Delay(v, p, r int, now float64) float64
}

// UniformDelay draws every delay independently and uniformly from
// (0, 1] — the engine's historical default, kept bit-compatible:
// rand.Float64 is uniform on [0, 1), so 1 - Float64() is uniform on
// (0, 1] with no epsilon shifting the support, and the draws happen in
// the engine's deterministic send order.
type UniformDelay struct {
	rng *rand.Rand
}

// NewUniformDelay returns the default uniform-(0,1] model.
func NewUniformDelay() *UniformDelay { return &UniformDelay{} }

func (m *UniformDelay) Reset(g *graph.Graph, seed int64) {
	m.rng = rand.New(rand.NewSource(seed))
}

func (m *UniformDelay) Delay(v, p, r int, now float64) float64 {
	return 1 - m.rng.Float64()
}

// ExponentialDelay draws delays from an exponential distribution with
// the given mean (1 if zero) — the classic memoryless network where
// most messages are fast but stragglers are unbounded.
type ExponentialDelay struct {
	Mean float64
	rng  *rand.Rand
}

func (m *ExponentialDelay) Reset(g *graph.Graph, seed int64) {
	m.rng = rand.New(rand.NewSource(seed))
}

func (m *ExponentialDelay) Delay(v, p, r int, now float64) float64 {
	mean := m.Mean
	if mean <= 0 {
		mean = 1
	}
	if d := m.rng.ExpFloat64() * mean; d <= MaxDelay {
		return d
	}
	return MaxDelay
}

// ParetoDelay draws heavy-tailed delays Scale·U^(-1/Alpha) with U
// uniform on (0, 1]: a Pareto distribution with shape Alpha (1.5 if
// zero; infinite variance below 2) and minimum Scale (0.1 if zero).
// Heavy tails are the regime where a per-message adversary hurts most:
// a single straggler can hold a whole frontier open.
type ParetoDelay struct {
	Alpha float64
	Scale float64
	rng   *rand.Rand
}

func (m *ParetoDelay) Reset(g *graph.Graph, seed int64) {
	m.rng = rand.New(rand.NewSource(seed))
}

func (m *ParetoDelay) Delay(v, p, r int, now float64) float64 {
	alpha, scale := m.Alpha, m.Scale
	if alpha <= 0 {
		alpha = 1.5
	}
	if scale <= 0 {
		scale = 0.1
	}
	u := 1 - m.rng.Float64() // uniform on (0, 1]
	if d := scale * math.Pow(u, -1/alpha); d <= MaxDelay {
		return d
	}
	return MaxDelay
}

// FixedEdgeDelay freezes one latency per directed edge for the whole
// run, drawn uniformly from (0, 1]·Scale (Scale 1 if zero) at Reset.
// It is the "adversary picked the link speeds in advance" model: every
// round repeats the same delay pattern, so a slow edge is slow in
// every round and the round skew it induces is persistent rather than
// averaged away.
type FixedEdgeDelay struct {
	Scale float64
	off   []int32 // g's CSR offsets: v's port p is directed edge off[v]+p
	delay []float64
}

func (m *FixedEdgeDelay) Reset(g *graph.Graph, seed int64) {
	m.off, _, _ = g.CSR()
	total := 2 * g.M()
	if cap(m.delay) < total {
		m.delay = make([]float64, total)
	}
	m.delay = m.delay[:total]
	scale := m.Scale
	if scale <= 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range m.delay {
		m.delay[i] = scale * (1 - rng.Float64())
	}
}

func (m *FixedEdgeDelay) Delay(v, p, r int, now float64) float64 {
	return m.delay[int(m.off[v])+p]
}

// fifoEps separates two forcibly-ordered arrivals on one link.
const fifoEps = 1e-9

// FIFODelay wraps a base model (uniform if nil) with a FIFO-link
// constraint: messages sent on the same directed edge arrive in send
// order. The base model's raw delay is clamped so each arrival lands
// strictly after the previous arrival on that link — the standard
// reliable-link assumption, under which the round stamps of one sender
// reach a receiver in order.
type FIFODelay struct {
	Base DelayModel
	off  []int32 // g's CSR offsets, as in FixedEdgeDelay
	last []float64
}

func (m *FIFODelay) Reset(g *graph.Graph, seed int64) {
	if m.Base == nil {
		m.Base = NewUniformDelay()
	}
	m.Base.Reset(g, seed)
	m.off, _, _ = g.CSR()
	total := 2 * g.M()
	if cap(m.last) < total {
		m.last = make([]float64, total)
	}
	m.last = m.last[:total]
	for i := range m.last {
		m.last[i] = 0
	}
}

func (m *FIFODelay) Delay(v, p, r int, now float64) float64 {
	d := m.Base.Delay(v, p, r, now)
	if math.IsInf(d, 1) {
		return d
	}
	e := int(m.off[v]) + p
	at := now + d
	if at <= m.last[e] {
		at = m.last[e] + fifoEps
		d = at - now
	}
	m.last[e] = at
	return d
}

// SlowCutDelay starves an edge cut: every edge with exactly one
// endpoint in the cut set crosses at delay Slow while every other edge
// crosses at delay Fast. It is the targeted adversary of the
// time-vs-information tradeoffs (Glacet, Miller & Pelc): starving the
// two ring edges that bound an arc of a hairy ring (families.Cut,
// HairyRing.ArcMembers) makes the arc run Slow/Fast rounds behind the
// rest of the graph before the synchronizer drags it forward — the
// maximum round skew the α-synchronizer permits. With Slow = Drop the
// cut is severed outright and the network must quiesce undecided.
type SlowCutDelay struct {
	inCut []bool
	slow  float64
	fast  float64
	cross []bool
	off   []int32 // g's CSR offsets, as in FixedEdgeDelay
}

// NewSlowCutDelay builds the adversary for the cut between inCut and
// its complement. Slow may be Drop; fast must be positive.
func NewSlowCutDelay(inCut []bool, slow, fast float64) *SlowCutDelay {
	return &SlowCutDelay{inCut: inCut, slow: slow, fast: fast}
}

func (m *SlowCutDelay) Reset(g *graph.Graph, seed int64) {
	if len(m.inCut) != g.N() {
		panic("sim: SlowCutDelay cut set size does not match the graph")
	}
	off, to, _ := g.CSR()
	m.off = off
	if cap(m.cross) < len(to) {
		m.cross = make([]bool, len(to))
	}
	m.cross = m.cross[:len(to)]
	for v := 0; v < g.N(); v++ {
		for i := off[v]; i < off[v+1]; i++ {
			m.cross[i] = m.inCut[v] != m.inCut[to[i]]
		}
	}
}

func (m *SlowCutDelay) Delay(v, p, r int, now float64) float64 {
	if m.cross[int(m.off[v])+p] {
		return m.slow
	}
	return m.fast
}

// AllDelayModels returns one instance of every delay model, keyed by
// the names electsim's -delay flag accepts — the canonical registry
// the differential suites and benchmarks iterate, so a new model is
// automatically covered everywhere. The slow-cut adversary needs a
// cut to starve; absent anything better it uses the first half of the
// node ids (hairy-ring workloads should build their own via
// NewSlowCutDelay and HairyRing.ArcMembers). The returned models are
// reusable across runs but not across concurrent runs.
func AllDelayModels(g *graph.Graph) map[string]DelayModel {
	inCut := make([]bool, g.N())
	for v := 0; v < g.N()/2; v++ {
		inCut[v] = true
	}
	return map[string]DelayModel{
		"uniform": NewUniformDelay(),
		"exp":     &ExponentialDelay{},
		"pareto":  &ParetoDelay{},
		"fixed":   &FixedEdgeDelay{},
		"fifo":    &FIFODelay{},
		"slowcut": NewSlowCutDelay(inCut, 16, 0.05),
	}
}
