// Package algorithms implements the node programs of the paper as
// sim.Decider state machines:
//
//   - Elect (Algorithm 6): minimum-time election with O(n log n) advice,
//     also a sim.LabelProgram that runs on O(log n)-bit labels;
//   - Generic(x) (Algorithm 7): advice-free except for the integer x >= φ,
//     elects in time <= D + x + 1 (Lemma 4.1);
//   - Election1..4 (Algorithm 8 + Theorem 4.1): Generic driven by the
//     four exponentially shrinking advice milestones;
//   - FullMap: the folklore algorithm of Proposition 2.1 for nodes that
//     know an isomorphic map of the graph;
//   - DPlusPhi: the remark after Theorem 4.1 — time D + φ with
//     O(log D + log φ) advice.
//
// All programs observe only their degree, the common advice, and the view
// B^r(v) handed to them each round (or, for Elect on labels, what the
// label recursion reads of it); they never see simulation identities.
package algorithms

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/advice"
	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/sim"
	"repro/internal/trie"
	"repro/internal/view"
)

// Elect is Algorithm 6. All nodes share the decoded advice and one
// concurrency-safe labeler over the common view table. It is also a
// sim.LabelProgram, so sim.RunBSP runs it on labels and interns no
// view; the other engines run Decide on views, which is what its label
// form is pinned against.
type Elect struct {
	Adv *advice.Advice
	Lab *trie.SharedLabeler
}

// NewElectFactory returns a sim.Factory running Algorithm Elect with the
// given advice bit string. The string is decoded once, here; the decoded
// structure (and the label memo, a pure function of advice and view) is
// shared read-only by every decider — per-node re-decoding was both
// redundant work and, for the label memo, an O(n · ball) blowup.
func NewElectFactory(tab *view.Table, advBits bits.String) (sim.Factory, error) {
	adv, err := advice.Decode(advBits)
	if err != nil {
		return nil, err
	}
	return NewElectFactoryDecoded(tab, adv), nil
}

// NewElectFactoryDecoded is NewElectFactory for advice that is already
// decoded (RunMinTime holds the oracle's decoded output, so encoding it
// just to decode it again would be wasted work — the encoded length is
// still what experiments report).
func NewElectFactoryDecoded(tab *view.Table, adv *advice.Advice) sim.Factory {
	prog := &Elect{Adv: adv, Lab: trie.NewSharedLabeler(tab)}
	return func(simID, deg int) sim.Decider { return prog }
}

// Decide implements sim.Decider: wait until round φ, compute the unique
// label from B^φ(u), and output the tree path to the node labeled 1.
// Advice computed for a different graph can drive the trie evaluation
// out of range on views it was never built for; such nodes recover and
// self-elect, making the failure observable to the verifier — the
// behaviour the lower-bound arguments (Claims 3.9/3.11) reason about.
func (e *Elect) Decide(r int, b *view.View) (out []int, done bool) {
	if r < e.Adv.Phi {
		return nil, false
	}
	defer func() {
		if recover() != nil {
			out, done = []int{}, true
		}
	}()
	return e.output(e.Lab.RetrieveLabel(b, e.Adv.E1, e.Adv.E2)), true
}

// output is the path to the leader from the node labeled x. Corrupt
// advice gets an empty (self-electing) output; the verifier will reject
// the election, which is the observable failure mode the lower bounds
// reason about.
func (e *Elect) output(x int) []int {
	ports, err := e.Adv.PathToLeader(x)
	if err != nil {
		return []int{}
	}
	return ports
}

// Elect as a sim.LabelProgram: a node's round-d label is
// RetrieveLabel(B^d(u)), computed the way Algorithm 3's recursion
// computes it — from E1 on the depth-1 view, then by level d of E2 from
// its own and its neighbors' depth-(d−1) labels (a view's truncation
// and children). A label step that panics on corrupt or foreign advice
// poisons the node's label, and the poison spreads to every node that
// hears it, so a node's depth-φ label is poisoned exactly when
// RetrieveLabel's recursion on B^φ(u) — which visits B^d(w) for every
// w within φ−d of u — would panic, and Decide would self-elect.
// Labels are bounded by the advice's trie sizes, far below the
// sentinel's magnitude.
const poisoned = math.MinInt32

// depth1Writers holds the buffers InitLabel encodes bin(B^1) into. In
// steady state there is one per worker of the label sweep, so the
// sweep allocates no encoding per node.
var depth1Writers = sync.Pool{New: func() any { return new(bits.Writer) }}

// InitLabel implements sim.LabelProgram: the depth-1 label, E1's
// LocalLabel on the view's encoding.
func (e *Elect) InitLabel(remote, nbrDeg []int32) (label int32) {
	defer func() {
		if recover() != nil {
			label = poisoned
		}
	}()
	e1 := e.Adv.E1
	if e1.IsLeaf() {
		return 1
	}
	w := depth1Writers.Get().(*bits.Writer)
	label = int32(e1.LocalLabel1(view.WriteDepth1(w, remote, nbrDeg)))
	depth1Writers.Put(w)
	return label
}

// StepLabel implements sim.LabelProgram: the depth-r label, level r of
// E2 applied to the node's depth-(r−1) label and its neighbors'.
func (e *Elect) StepLabel(r int, own int32, nbr []int32) (label int32) {
	if own == poisoned || slices.Contains(nbr, poisoned) {
		return poisoned
	}
	defer func() {
		if recover() != nil {
			label = poisoned
		}
	}()
	return int32(e.Adv.E2.Level(r).Label(int(own), nbr))
}

// DecideLabel implements sim.LabelProgram: Decide on the round-r label.
// At round 0 there is no label to read (RetrieveLabel panics on a
// depth-0 view), so advice with φ <= 0 self-elects every node.
func (e *Elect) DecideLabel(r int, label int32) ([]int, bool) {
	if r < e.Adv.Phi {
		return nil, false
	}
	if r == 0 || label == poisoned {
		return []int{}, true
	}
	return e.output(int(label)), true
}

// Generic is Algorithm 7 with parameter x. The node stops at the first
// round K >= x+1 in which the set Y of views at the knowledge frontier
// brings nothing new, then outputs the lexicographically smallest shortest
// path to the node with the minimum augmented truncated view at depth x.
type Generic struct {
	X   int
	Tab *view.Table
}

// NewGenericFactory returns a sim.Factory for Generic(x).
func NewGenericFactory(tab *view.Table, x int) sim.Factory {
	prog := &Generic{X: x, Tab: tab}
	return func(simID, deg int) sim.Decider { return prog }
}

// Decide implements sim.Decider.
func (g *Generic) Decide(r int, b *view.View) ([]int, bool) {
	if r < g.X+1 {
		return nil, false
	}
	levels := view.LevelSets(b)
	// X: depth-x views of occurrences at levels 0..r-x-1;
	// Y: those at level r-x.
	inX := make(map[*view.View]bool)
	for j := 0; j <= r-g.X-1; j++ {
		for _, w := range levels[j] {
			inX[g.Tab.TruncateTo(w, g.X)] = true
		}
	}
	for _, w := range levels[r-g.X] {
		if !inX[g.Tab.TruncateTo(w, g.X)] {
			return nil, false // Y brought a new view; keep going
		}
	}
	cand := make([]*view.View, 0, len(inX))
	for v := range inX {
		cand = append(cand, v)
	}
	bmin := minByRank(g.Tab, cand)
	path := g.Tab.LexShortestPathTo(b, bmin, g.X, r-g.X)
	if path == nil {
		// Unreachable when x >= φ; returning a self-election makes a
		// wrong parameter observable to the verifier instead of hanging.
		return []int{}, true
	}
	return path, true
}

// minByRank returns the canonically smallest view of a non-empty
// equal-depth candidate set. It fetches all packed canonical ranks in
// one batch (view.Table.Ranks) and reduces with integer compares — the
// deciders' hot-path form of Table.Min, pinned to Table.Compare by
// TestMinByRankMatchesCompare.
func minByRank(tab *view.Table, cand []*view.View) *view.View {
	if len(cand) == 0 {
		return nil
	}
	ranks := tab.Ranks(cand, nil)
	best := 0
	for i := 1; i < len(ranks); i++ {
		if ranks[i] < ranks[best] {
			best = i
		}
	}
	return cand[best]
}

// TowerCap is the saturation value of Tower; values at or above it mean
// "astronomically large".
const TowerCap = 1 << 62

// Tower computes the paper's iterated exponential ic for base c:
// Tower(c, 0) = 1 and Tower(c, i+1) = c^Tower(c, i). It saturates at
// TowerCap to avoid overflow; callers treat saturation as "large enough".
func Tower(c, i int) int {
	if c < 2 {
		panic(fmt.Sprintf("algorithms: Tower base %d < 2", c))
	}
	v := 1
	for k := 0; k < i; k++ {
		next := 1
		for j := 0; j < v; j++ {
			if next >= TowerCap/c {
				next = TowerCap
				break
			}
			next *= c
		}
		v = next
		if v >= TowerCap {
			return TowerCap
		}
	}
	return v
}

// FloorLog2 returns ⌊log2 x⌋ for x >= 1.
func FloorLog2(x int) int {
	if x < 1 {
		panic(fmt.Sprintf("algorithms: FloorLog2(%d)", x))
	}
	l := 0
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}

// LogStar returns log* x: the number of times log2 must be iterated,
// starting from x, before the result is at most 1.
func LogStar(x int) int {
	if x < 1 {
		panic(fmt.Sprintf("algorithms: LogStar(%d)", x))
	}
	count := 0
	v := float64(x)
	for v > 1 {
		v = math.Log2(v)
		count++
	}
	return count
}

// ElectionAdvice returns the advice string A_i and the Generic parameter
// P_i of Algorithm Election_i (i in 1..4) for a graph of election index
// phi, per Theorem 4.1:
//
//	i=1: A = bin(φ),            P = φ
//	i=2: A = bin(⌊log φ⌋),      P = 2^(⌊log φ⌋+1) − 1
//	i=3: A = bin(⌊log log φ⌋),  P = 2^(2^(⌊log log φ⌋+1)) − 1
//	i=4: A = bin(log* φ),       P = Tower(2, log* φ)
//
// Each P_i >= φ, so Generic(P_i) is correct (Lemma 4.1). For i = 4 the
// paper's P is the smallest tower value at least φ: since
// Tower(log*φ − 1) < φ, it satisfies Tower(log*φ) = 2^Tower(log*φ−1)
// <= 2^(φ−1), giving election time at most D + c^φ.
func ElectionAdvice(i, phi int) (adv bits.String, p int) {
	if phi < 1 {
		panic(fmt.Sprintf("algorithms: phi = %d < 1", phi))
	}
	switch i {
	case 1:
		return bits.Bin(phi), phi
	case 2:
		l := FloorLog2(phi)
		return bits.Bin(l), 1<<(uint(l)+1) - 1
	case 3:
		ll := 0
		if phi >= 2 {
			ll = FloorLog2(FloorLog2(phi))
		}
		return bits.Bin(ll), 1<<(uint(1)<<(uint(ll)+1)) - 1
	case 4:
		ls := LogStar(phi)
		return bits.Bin(ls), Tower(2, ls)
	default:
		panic(fmt.Sprintf("algorithms: invalid election milestone %d", i))
	}
}

// DecodeElectionAdvice is the node-side inverse: given the milestone i and
// the advice string, it recomputes the Generic parameter P_i.
func DecodeElectionAdvice(i int, adv bits.String) (int, error) {
	v, err := bits.ParseBin(adv)
	if err != nil {
		return 0, err
	}
	switch i {
	case 1:
		return v, nil
	case 2:
		if v >= 61 {
			return TowerCap, nil
		}
		return 1<<(uint(v)+1) - 1, nil
	case 3:
		if v >= 5 {
			return TowerCap, nil
		}
		return 1<<(uint(1)<<(uint(v)+1)) - 1, nil
	case 4:
		return Tower(2, v), nil
	default:
		return 0, fmt.Errorf("algorithms: invalid milestone %d", i)
	}
}

// NewElectionFactory returns the sim.Factory of Algorithm Election_i for
// the advice string produced by ElectionAdvice(i, phi).
func NewElectionFactory(tab *view.Table, i int, adv bits.String) (sim.Factory, error) {
	p, err := DecodeElectionAdvice(i, adv)
	if err != nil {
		return nil, err
	}
	return NewGenericFactory(tab, p), nil
}

// FullMap is the algorithm of Proposition 2.1 for nodes given the map of
// the graph (an isomorphic port-labeled copy): run for φ rounds, locate
// yourself by your unique view, and output a lex-minimal shortest path to
// the node with the smallest B^φ.
type FullMap struct {
	Tab    *view.Table
	Phi    int
	ByView map[*view.View]int // map node by its depth-φ view
	Paths  map[*view.View][]int
}

// NewFullMapFactory precomputes, from the map m, each depth-φ view's
// output path; nodes then just look up their acquired view. Returns an
// error if m is infeasible.
func NewFullMapFactory(tab *view.Table, m *graph.Graph) (sim.Factory, int, error) {
	phi, ok := part.ElectionIndex(m)
	if !ok {
		return nil, 0, fmt.Errorf("algorithms: map is infeasible")
	}
	levels := view.Levels(tab, m, phi)
	target := tab.Min(levels[phi])
	leader := -1
	for v, w := range levels[phi] {
		if w == target {
			leader = v
		}
	}
	paths := make(map[*view.View][]int, m.N())
	for v, w := range levels[phi] {
		paths[w] = lexShortestGraphPath(m, v, leader)
	}
	fm := &FullMap{Tab: tab, Phi: phi, Paths: paths}
	return func(simID, deg int) sim.Decider { return fm }, phi, nil
}

// Decide implements sim.Decider for FullMap.
func (f *FullMap) Decide(r int, b *view.View) ([]int, bool) {
	if r < f.Phi {
		return nil, false
	}
	path, ok := f.Paths[b]
	if !ok {
		return []int{}, true // running on a graph that is not the map
	}
	return path, true
}

// lexShortestGraphPath returns the flattened port sequence of the
// lexicographically smallest shortest path from u to w in g.
func lexShortestGraphPath(g *graph.Graph, u, w int) []int {
	if u == w {
		return []int{}
	}
	distToW := g.BFSDist(w)
	path := []int{}
	cur := u
	for cur != w {
		for p := 0; p < g.Deg(cur); p++ {
			h := g.At(cur, p)
			if distToW[h.To] == distToW[cur]-1 {
				path = append(path, p, h.RemotePort)
				cur = h.To
				break
			}
		}
	}
	return path
}

// DPlusPhi is the algorithm of the remark after Theorem 4.1: nodes are
// given D and φ (advice of size O(log D + log φ)), run exactly D + φ
// rounds, and output a lex-minimal shortest path to the node whose B^φ
// is smallest among all nodes within distance D (i.e. all nodes).
type DPlusPhi struct {
	Tab *view.Table
	D   int
	Phi int
}

// DPlusPhiAdvice encodes (D, φ) as Concat(bin(D), bin(φ)).
func DPlusPhiAdvice(d, phi int) bits.String {
	return bits.Concat(bits.Bin(d), bits.Bin(phi))
}

// NewDPlusPhiFactory decodes the advice and returns the factory.
func NewDPlusPhiFactory(tab *view.Table, adv bits.String) (sim.Factory, error) {
	parts, err := bits.Decode(adv)
	if err != nil {
		return nil, err
	}
	if len(parts) != 2 {
		return nil, fmt.Errorf("algorithms: D+phi advice has %d parts", len(parts))
	}
	d, err := bits.ParseBin(parts[0])
	if err != nil {
		return nil, err
	}
	phi, err := bits.ParseBin(parts[1])
	if err != nil {
		return nil, err
	}
	prog := &DPlusPhi{Tab: tab, D: d, Phi: phi}
	return func(simID, deg int) sim.Decider { return prog }, nil
}

// Decide implements sim.Decider for DPlusPhi.
func (a *DPlusPhi) Decide(r int, b *view.View) ([]int, bool) {
	if r < a.D+a.Phi {
		return nil, false
	}
	levels := view.LevelSets(b)
	// The minimum over the multiset of depth-Phi truncations equals the
	// minimum over the set, so no dedup pass is needed.
	var cand []*view.View
	for j := 0; j <= a.D; j++ {
		for _, w := range levels[j] {
			cand = append(cand, a.Tab.TruncateTo(w, a.Phi))
		}
	}
	bmin := minByRank(a.Tab, cand)
	path := a.Tab.LexShortestPathTo(b, bmin, a.Phi, a.D)
	if path == nil {
		return []int{}, true
	}
	return path, true
}
