// Package advice implements the oracle side of the paper's minimum-time
// election: Algorithm ComputeAdvice (Algorithm 5), which, given the whole
// graph G, produces the advice string Concat(bin(φ), A1, A2) of length
// O(n log n) (Theorem 3.1, part 1). A1 = Concat(bin(E1), bin(E2)) encodes
// the discrimination tries; A2 encodes the canonical BFS tree of G rooted
// at the node whose retrieved label is 1, with every node labeled by its
// retrieved label.
package advice

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/classviews"
	"repro/internal/graph"
	"repro/internal/trie"
	"repro/internal/view"
)

// LabeledTreeEdge is an edge of the advice BFS tree A2, identified by the
// temporary labels of its endpoints and the graph's port numbers.
type LabeledTreeEdge struct {
	ParentLabel int
	ChildLabel  int
	PortParent  int
	PortChild   int
}

// Advice is the decoded form of the oracle's output. Nodes executing
// Algorithm Elect reconstruct exactly this structure from the bit string.
// One decoded Advice is shared read-only by every decider of a run; the
// parent index over Tree is derived once, lazily, instead of per node
// per PathToLeader call.
type Advice struct {
	Phi  int               // election index of the graph
	E1   *trie.Trie        // discriminates depth-1 views
	E2   trie.E2           // discriminates deeper views, level by level
	Tree []LabeledTreeEdge // canonical BFS tree, labels in {1..n}, root label 1

	parentOnce sync.Once
	// parent[x] is the tree edge from child label x to its parent;
	// labels are dense in {1..n} so the index is a slice, not a map —
	// PathToLeader sits inside every decider's final round, and at
	// 100k nodes with deep trees (torus) the per-hop map probes were
	// the single hottest block of the whole election's serial phase.
	parent []LabeledTreeEdge // indexed by child label; ParentLabel == 0 means absent
}

// Oracle holds the state shared between advice computation and any
// subsequent label queries (tests use it to cross-check node behaviour).
// The labeler is the concurrency-safe SharedLabeler because
// ComputeAdvice builds the per-depth couple tries and runs the final
// label sweep over a worker pool.
type Oracle struct {
	Tab     *view.Table
	Labeler *trie.SharedLabeler
}

// NewOracle returns an oracle interning into tab.
func NewOracle(tab *view.Table) *Oracle {
	return &Oracle{Tab: tab, Labeler: trie.NewSharedLabeler(tab)}
}

// distinctSorted returns the distinct views of vs in canonical order.
func distinctSorted(tab *view.Table, vs []*view.View) []*view.View {
	seen := make(map[*view.View]struct{}, len(vs))
	out := make([]*view.View, 0, len(vs))
	for _, v := range vs {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	tab.Sort(out)
	return out
}

// oracleLevel is one depth of the class-sharing materialization kept by
// ComputeAdvice: the interned class views (indexed by class, one per
// distinct view of that depth) and each class's class at the previous
// depth (classes only ever split, so every depth-i class sits inside
// exactly one depth-(i-1) class — its view's truncation).
type oracleLevel struct {
	views  []*view.View
	parent []int32
}

// ComputeAdvice is Algorithm 5 of the paper. It requires g to be feasible
// and returns the decoded advice; use (*Advice).Encode for the bit string.
//
// The oracle shares the class-sharing materializer with the simulation
// engine (internal/classviews): at every depth below φ it interns one
// representative view per view class instead of one view per node (the
// per-node Levels pass this replaces was the last superlinear interning
// path in the pipeline). Depth φ has n singleton classes by definition,
// so the final depth necessarily interns n views — but their children
// are the already-shared class views of depth φ−1. The couple tries of
// each depth and the final n-node label sweep are batched over a worker
// pool; that is sound because trie splits and labels are pure functions
// of (view set, E1, E2 prefix), and deterministic because BuildTrie's
// output is a function of the candidate *set* (every split is decided
// by canonically distinguished elements, not by input order).
func (o *Oracle) ComputeAdvice(g *graph.Graph) (*Advice, error) {
	return o.ComputeAdviceCtx(context.Background(), g)
}

// ComputeAdviceCtx is ComputeAdvice under a context: every phase that
// scales with the graph — the per-depth materialization loop, each E2
// level's trie build, and the final label sweep — begins with a
// cancellation checkpoint, so a per-request timeout actually stops
// oracle work instead of merely abandoning its result. On cancellation
// the returned error wraps ctx.Err() (errors.Is-able against
// context.Canceled / context.DeadlineExceeded).
func (o *Oracle) ComputeAdviceCtx(ctx context.Context, g *graph.Graph) (*Advice, error) {
	n := g.N()
	if n < 3 {
		return nil, fmt.Errorf("advice: leader election on %d node(s) is degenerate; model requires n >= 3", n)
	}
	mat := classviews.New(o.Tab, g)
	// levels[i] aligns with depth i; the oracle never reads depth 0 (E1
	// starts at depth 1), so index 0 stays a placeholder.
	levels := []oracleLevel{{}}
	count := mat.NumClasses()
	prev := make([]int32, n)
	for count < n {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("advice: materialization canceled at depth %d: %w", mat.Depth(), err)
		}
		copy(prev, mat.Class())
		mat.Step()
		k := mat.NumClasses()
		if k == count {
			return nil, errors.New("advice: graph is infeasible (symmetric views)")
		}
		count = k
		lv := oracleLevel{
			views:  append([]*view.View(nil), mat.Views()...),
			parent: make([]int32, k),
		}
		for c := 0; c < k; c++ {
			lv.parent[c] = prev[mat.Representative(c)]
		}
		levels = append(levels, lv)
	}
	phi := mat.Depth()
	lb := o.Labeler

	// E1 discriminates all depth-1 views: exactly the depth-1 class
	// views (the equivalence invariant of internal/part makes classes
	// one per distinct view).
	e1 := lb.BuildTrie(levels[1].views, nil, nil)

	// E2: for each depth i = 2..phi, for each depth-(i-1) view B' with
	// label j, if several depth-i views share the truncation B', add the
	// couple (j, BuildTrie of that set). The truncation of class c's
	// view is its parent class's view, so grouping is a counting pass
	// over parent ids — no Truncate walks. The couples of one depth are
	// independent given the E2 prefix below them, so their tries are
	// built in parallel.
	var e2 trie.E2
	for i := 2; i <= phi; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("advice: trie build canceled at depth %d: %w", i, err)
		}
		cur, par := levels[i].views, levels[i].parent
		kPrev := len(levels[i-1].views)
		// Bucket the depth-i classes by parent class, in parent order.
		off := make([]int32, kPrev+1)
		for _, p := range par {
			off[p+1]++
		}
		for p := 0; p < kPrev; p++ {
			off[p+1] += off[p]
		}
		grouped := make([]*view.View, len(cur))
		fill := append([]int32(nil), off[:kPrev]...)
		for c, p := range par {
			grouped[fill[p]] = cur[c]
			fill[p]++
		}
		var parents []int32 // parent classes whose group needs a trie
		for p := 0; p < kPrev; p++ {
			if off[p+1]-off[p] > 1 {
				parents = append(parents, int32(p))
			}
		}
		couples := make([]trie.Couple, len(parents))
		parallelDo(len(parents), 1, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				p := parents[t]
				couples[t] = trie.Couple{
					J: lb.RetrieveLabel(levels[i-1].views[p], e1, e2),
					T: lb.BuildTrie(grouped[off[p]:off[p+1]], e1, e2),
				}
			}
		})
		sort.Slice(couples, func(a, b int) bool { return couples[a].J < couples[b].J })
		e2 = append(e2, trie.NewLevelList(i, couples))
	}

	// Final labels at depth phi, one RetrieveLabel per node (classes are
	// singletons here, so Views()[Class()[v]] is B^phi(v)), swept over
	// the worker pool; the validity checks run afterwards in node order,
	// so the diagnostics match the sequential oracle's.
	finalViews, cls := levels[phi].views, mat.Class()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("advice: label sweep canceled: %w", err)
	}
	labelOf := make([]int, n)
	parallelDo(n, sweepChunk(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			labelOf[v] = lb.RetrieveLabel(finalViews[cls[v]], e1, e2)
		}
	})
	root := -1
	seenBy := make([]int, n+1) // label -> node+1 that carries it
	for v := 0; v < n; v++ {
		l := labelOf[v]
		if l < 1 || l > n {
			return nil, fmt.Errorf("advice: label %d out of range [1,%d] at node %d", l, n, v)
		}
		if u := seenBy[l]; u != 0 {
			return nil, fmt.Errorf("advice: label %d assigned to both nodes %d and %d", l, u-1, v)
		}
		seenBy[l] = v + 1
		if l == 1 {
			root = v
		}
	}
	if root < 0 {
		return nil, errors.New("advice: no node received label 1")
	}
	var tree []LabeledTreeEdge
	for _, e := range g.CanonicalBFSTree(root) {
		tree = append(tree, LabeledTreeEdge{
			ParentLabel: labelOf[e.Parent],
			ChildLabel:  labelOf[e.Child],
			PortParent:  e.PortParent,
			PortChild:   e.PortChild,
		})
	}
	// Order A2 by labels so the encoded advice is a pure function of the
	// anonymous graph: two port-isomorphic graphs get bit-identical
	// advice no matter how their construction numbered the nodes.
	sort.Slice(tree, func(i, j int) bool {
		if tree[i].ParentLabel != tree[j].ParentLabel {
			return tree[i].ParentLabel < tree[j].ParentLabel
		}
		return tree[i].PortParent < tree[j].PortParent
	})
	return &Advice{Phi: phi, E1: e1, E2: e2, Tree: tree}, nil
}

// NodeLabel returns the temporary label RetrieveLabel(B^phi(v), E1, E2)
// that the oracle assigned; exposed for tests and tools.
func (o *Oracle) NodeLabel(a *Advice, b *view.View) int {
	return o.Labeler.RetrieveLabel(b, a.E1, a.E2)
}

// PathToLeader returns the port sequence of the unique simple path in the
// advice tree from the node labeled x to the root (labeled 1). It returns
// an error if x does not occur in the tree.
func (a *Advice) PathToLeader(x int) ([]int, error) {
	if x == 1 {
		return []int{}, nil
	}
	a.parentOnce.Do(func() {
		parent := make([]LabeledTreeEdge, len(a.Tree)+2)
		for _, e := range a.Tree {
			if e.ChildLabel > 0 && e.ChildLabel < len(parent) {
				parent[e.ChildLabel] = e
			}
		}
		a.parent = parent
	})
	parent := a.parent
	// Count the hops first, so the path is allocated once at its size.
	hops := 0
	for cur := x; cur != 1; cur = parent[cur].ParentLabel {
		if cur < 0 || cur >= len(parent) || parent[cur].ParentLabel == 0 {
			return nil, fmt.Errorf("advice: label %d not in tree", x)
		}
		hops++
		if hops > len(a.Tree)+1 {
			return nil, errors.New("advice: cycle in tree encoding")
		}
	}
	ports := make([]int, 0, 2*hops)
	for cur := x; cur != 1; cur = parent[cur].ParentLabel {
		ports = append(ports, parent[cur].PortChild, parent[cur].PortParent)
	}
	return ports, nil
}
