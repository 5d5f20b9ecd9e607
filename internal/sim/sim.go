// Package sim implements the LOCAL communication model of the paper:
// communication proceeds in synchronous rounds, all nodes start
// simultaneously, and in each round every node exchanges messages with
// all of its neighbors and performs arbitrary local computation. The
// information a node v acquires in r rounds is exactly its augmented
// truncated view B^r(v), which is what the engine hands to the node's
// decision program after every round (this is the COM(i) subroutine,
// Algorithm 1, iterated).
//
// The engines below must be observationally identical; the root
// package exposes each production engine as one election.Realization,
// and the sharded engine lives in internal/sim/shard.
//
//   - the sequential engine (RunSequential) performs the exchange in a
//     deterministic per-node loop and is the reference the others are
//     pinned against; only tests run it;
//   - the bulk-synchronous engine (RunBSP, see bsp.go) batches each
//     round into one parallel sweep — the engine that carries end-to-end
//     elections to 100k-node graphs. It runs label programs
//     (LabelProgram, labels.go), such as Algorithm Elect, on one int32
//     label per node per round and interns no view; other programs get
//     one interned view per view-equivalence class per round;
//   - the concurrent engine (RunConcurrent) runs one goroutine per node
//     and moves view messages across buffered channels, one channel per
//     directed edge — the natural Go realization of a message-passing
//     network. Its wire mode serializes every message to a bit string
//     and decodes it on arrival, demonstrating that only B^i(v)
//     information ever crosses an edge; it is exponential in the round
//     number and meant for small-depth fidelity tests;
//   - the asynchronous engine (RunAsync, async.go) drops the synchrony
//     assumption itself: nodes run the α-synchronizer over an
//     event-driven network whose per-message delays are chosen by an
//     adversarial DelayModel (delay.go). Under the synchronizer a
//     message's content is a function of its round stamp alone, so the
//     engine takes Outputs, Rounds and Time from one RunBSP run (label
//     programs on labels, other programs on class-shared views) and
//     replays it on the schedule; only the virtual schedule differs.
//
// Every engine reports an exceeded round budget as a *StuckError.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/view"
)

// Decider is a node program. After round r the engine calls Decide with
// the node's exact knowledge B^r(v); the program returns its output (the
// port sequence P(v) identifying the leader) and done = true when it has
// decided. A decided node keeps participating in the exchange (the model
// measures the time until all nodes have produced output).
//
// Programs must base decisions only on (r, b) and on data they were
// constructed with (degree, advice): that is the anonymity discipline.
// An output is read-only once returned: it may share its backing array
// with other nodes' outputs (Algorithm Elect's do).
type Decider interface {
	Decide(r int, b *view.View) (output []int, done bool)
}

// Factory builds the decider for a node of the given degree. The sim id
// is provided for harness bookkeeping only; anonymous algorithms must
// ignore it (all deciders in internal/algorithms do).
type Factory func(simID, deg int) Decider

// Result reports the outcome of a run.
type Result struct {
	// Outputs holds per node the port sequence it output. Entries are
	// read-only and may share backing arrays with one another and with
	// the program's own data, as Algorithm Elect's paths do.
	Outputs [][]int
	Rounds  []int // per node: the round in which it decided
	Time    int   // max over Rounds — the paper's time measure
	// Messages counts messages exchanged: 2·m per round on the
	// synchronous engines; on the asynchronous engine it counts
	// *delivered* messages, a property of the schedule (regions that
	// race ahead of the last decider keep exchanging), not of the
	// algorithm — so it is excluded from cross-engine equality.
	Messages int
	WireBits int // total bits on the wire (wire mode only)
	// ClassViews counts the representative views interned across all
	// rounds — RunBSP's whole interning volume, at most (Time+1)·n but
	// typically far less; RunAsync reports its RunBSP run's. It is 0
	// for label programs, which intern no view.
	ClassViews int
}

// DefaultMaxRounds bounds runaway programs relative to the graph size.
func DefaultMaxRounds(g *graph.Graph) int { return 4*g.N() + 32 }

// RunSequential executes the synchronous protocol deterministically.
func RunSequential(tab *view.Table, g *graph.Graph, f Factory, maxRounds int) (*Result, error) {
	n := g.N()
	deciders := make([]Decider, n)
	for v := 0; v < n; v++ {
		deciders[v] = f(v, g.Deg(v))
	}
	res := &Result{Outputs: make([][]int, n), Rounds: make([]int, n)}
	done := make([]bool, n)
	remaining := n

	cur := make([]*view.View, n)
	next := make([]*view.View, n)
	// One scratch for the whole run, sized to the largest degree up
	// front (Make copies, so the slice is reusable across nodes).
	edges := make([]view.Edge, g.MaxDegree())
	for v := 0; v < n; v++ {
		cur[v] = tab.Leaf(g.Deg(v))
	}
	for r := 0; ; r++ {
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			out, ok := deciders[v].Decide(r, cur[v])
			if ok {
				res.Outputs[v] = out
				res.Rounds[v] = r
				done[v] = true
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		if r >= maxRounds {
			return nil, budgetExceeded(maxRounds, remaining)
		}
		for v := 0; v < n; v++ {
			deg := g.Deg(v)
			e := edges[:deg]
			for p := 0; p < deg; p++ {
				h := g.At(v, p)
				e[p] = view.Edge{RemotePort: h.RemotePort, Child: cur[h.To]}
			}
			next[v] = tab.Make(e)
		}
		cur, next = next, cur
		// Counted here, after the round's exchange actually happened: a
		// run that ends with the decide sweep never bills an exchange it
		// did not perform.
		res.Messages += 2 * g.M()
	}
	res.setTime()
	return res, nil
}

// message is what travels over a channel: the sender's port for the edge
// plus either a view handle or its wire encoding.
type message struct {
	senderPort int
	v          *view.View
	wire       bits.String
	isWire     bool
}

// RunConcurrent executes the protocol with one goroutine per node and one
// buffered channel per directed edge. If wire is true, every message is
// serialized to bits and re-interned on arrival.
func RunConcurrent(tab *view.Table, g *graph.Graph, f Factory, maxRounds int, wire bool) (*Result, error) {
	n := g.N()
	// out[v][p]: channel carrying messages from v through its port p.
	// The receiving end is looked up via the edge's far half.
	chans := make([][]chan message, n)
	for v := 0; v < n; v++ {
		chans[v] = make([]chan message, g.Deg(v))
		for p := range chans[v] {
			chans[v][p] = make(chan message, 1)
		}
	}
	type nodeOut struct {
		output   []int
		round    int
		stuck    bool
		sent     int
		wireBits int
	}
	results := make([]nodeOut, n)
	// stop[r] closed when some node fails; nodes also coordinate rounds
	// through a barrier so that decided-but-participating semantics hold.
	var wg sync.WaitGroup
	barrier := newBarrier(n)
	var failMu sync.Mutex
	var failErr error

	for v := 0; v < n; v++ {
		wg.Add(1)
		//lint:allow detlint the Goroutines realization is one goroutine per node by definition; rounds meet at the barrier
		go func(v int) {
			defer wg.Done()
			d := f(v, g.Deg(v))
			b := tab.Leaf(g.Deg(v))
			edges := make([]view.Edge, g.Deg(v))
			decided := false
			for r := 0; ; r++ {
				if !decided {
					if r > maxRounds {
						// All undecided nodes reach this branch in the
						// same round (rounds are in lockstep), so the
						// barrier below converges to "all done".
						results[v].stuck = true
						decided = true
					} else if out, ok := d.Decide(r, b); ok {
						results[v].output, results[v].round = out, r
						decided = true
					}
				}
				// Global consensus on whether everyone is decided: the
				// barrier aggregates a boolean AND across nodes.
				if allDone := barrier.sync(decided); allDone {
					return
				}
				// Exchange: send B^r to all neighbors, receive theirs.
				for p := 0; p < g.Deg(v); p++ {
					m := message{senderPort: p}
					if wire {
						m.wire, m.isWire = view.Serialize(b), true
						results[v].wireBits += m.wire.Len()
					} else {
						m.v = b
					}
					results[v].sent++
					chans[v][p] <- m
				}
				for p := 0; p < g.Deg(v); p++ {
					h := g.At(v, p)
					m := <-chans[h.To][h.RemotePort]
					child := m.v
					if m.isWire {
						var err error
						child, err = view.Deserialize(tab, m.wire)
						if err != nil {
							failMu.Lock()
							if failErr == nil {
								failErr = fmt.Errorf("sim: wire decode at node: %w", err)
							}
							failMu.Unlock()
							child = tab.Leaf(0)
						}
					}
					edges[p] = view.Edge{RemotePort: m.senderPort, Child: child}
				}
				b = tab.Make(edges)
			}
		}(v)
	}
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	res := &Result{Outputs: make([][]int, n), Rounds: make([]int, n)}
	stuck := 0
	for v, r := range results {
		if r.stuck {
			stuck++
		}
		res.Outputs[v] = r.output
		res.Rounds[v] = r.round
		res.Messages += r.sent
		res.WireBits += r.wireBits
		if r.round > res.Time {
			res.Time = r.round
		}
	}
	if stuck > 0 {
		return nil, budgetExceeded(maxRounds, stuck)
	}
	return res, nil
}

// barrier is a reusable n-party barrier that also computes the AND of the
// per-party flags, used to detect global termination.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	all     bool
	gen     int
	result  bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n, all: true}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// sync blocks until all n parties have called it for the current round and
// returns the AND of their flags.
func (b *barrier) sync(flag bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	if !flag {
		b.all = false
	}
	b.arrived++
	if b.arrived == b.n {
		b.result = b.all
		b.arrived = 0
		b.all = true
		b.gen++
		b.cond.Broadcast()
		return b.result
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.result
}

// Verify checks the leader-election correctness condition of the paper:
// every node's output, followed from that node, must be a simple path in
// g and all paths must end at a common node, the leader. It returns the
// leader's sim id.
//
// A correct election is usually suffix-consistent, and suffixLeader
// accepts that form in one O(n) pass; every other input, valid or not,
// is walked hop by hop (verifyWalk), which is the only source of
// errors, so the result and the error text never depend on the pass.
func Verify(g *graph.Graph, outputs [][]int) (int, error) {
	if len(outputs) == g.N() {
		if leader, ok := suffixLeader(g, outputs); ok {
			return leader, nil
		}
	}
	return verifyWalk(g, outputs)
}

// suffixLeader accepts outputs in which exactly one node, the leader,
// has an empty output and every other node v's output P is
// suffix-consistent: len(P) is even, its first hop (P[0], P[1]) is a
// half-edge of v into some u with arrival port P[1], and P[2:] equals
// u's output, compared by address when the two share memory (as
// Algorithm Elect's outputs do, see advice.PathToLeader) and element
// by element otherwise. It stops at the first node that is not.
//
// Sound, by induction on len(P)/2: the leader's walk is itself; v's
// walk is one valid hop followed by u's walk, which is valid, simple
// and ends at the leader. Along u's walk the output lengths strictly
// decrease from len(P)−2, so v, whose output is longer, is not on it.
func suffixLeader(g *graph.Graph, outputs [][]int) (int, bool) {
	off, to, rport := g.CSR()
	leader := -1
	for v, p := range outputs {
		if len(p) == 0 {
			if leader >= 0 {
				return -1, false
			}
			leader = v
			continue
		}
		if len(p)%2 != 0 || p[0] < 0 || p[0] >= int(off[v+1]-off[v]) {
			return -1, false
		}
		h := int(off[v]) + p[0]
		if int(rport[h]) != p[1] {
			return -1, false
		}
		q, rest := outputs[to[h]], p[2:]
		if len(q) != len(rest) {
			return -1, false
		}
		if len(q) > 0 && &q[0] != &rest[0] && !slices.Equal(q, rest) {
			return -1, false
		}
	}
	return leader, leader >= 0
}

// verifyWalk follows every output hop by hop. The simple-path check
// uses one stamp-guarded visited buffer for the whole verification.
func verifyWalk(g *graph.Graph, outputs [][]int) (int, error) {
	if len(outputs) != g.N() {
		return -1, errors.New("sim: wrong number of outputs")
	}
	leader := -1
	visited := make([]int, g.N()) // visited[u] == v+1: u seen on node v's path
	// Every path is walked into one buffer, sized once for the longest.
	longest := 0
	for _, ports := range outputs {
		longest = max(longest, len(ports))
	}
	buf := make([]int, 0, longest/2+1)
	for v, ports := range outputs {
		nodes, err := g.AppendPath(buf[:0], v, ports)
		if err != nil {
			return -1, fmt.Errorf("sim: node %d output invalid: %w", v, err)
		}
		stamp := v + 1
		for _, u := range nodes {
			if visited[u] == stamp {
				return -1, fmt.Errorf("sim: node %d output is not a simple path", v)
			}
			visited[u] = stamp
		}
		end := nodes[len(nodes)-1]
		if leader == -1 {
			leader = end
		} else if end != leader {
			return -1, fmt.Errorf("sim: node %d elected %d, others elected %d", v, end, leader)
		}
	}
	return leader, nil
}
