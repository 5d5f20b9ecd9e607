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
	"sync"

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
	E1   trie.Trie         // discriminates depth-1 views
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

// Oracle holds the view table and labeler of the view-based paths:
// ComputeNaiveAdvice, ComputeAdviceReference and NodeLabel.
// ComputeAdvice uses neither: it computes the advice on the class
// quotient and interns no view.
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

// ComputeAdvice is Algorithm 5 of the paper. It requires g to be feasible
// and returns the decoded advice; use (*Advice).Encode for the bit string.
//
// Everything Algorithm 5 reads off the distinct views of a depth — E1
// over the depth-1 views, the couples of E2 grouping the depth-i views
// by truncation, the tries' canonical splits and the temporary labels —
// is a function of the view *set*, and by the Yamashita–Kameda quotient
// argument the distinct depth-i views are exactly the depth-i
// refinement classes: a class's truncation is its class one depth up,
// and its children are the neighbors' classes one depth up. So the
// oracle walks the class quotient depth by depth (quotient), with two
// depths alive at a time, and computes the canonical ranks, the tries
// and the labels on dense per-class arrays. It interns no view; the
// tries it builds are exactly those the view-based BuildTrie builds,
// because every split is decided by canonically distinguished elements
// and equal child class means equal child view
// (ComputeAdviceReference, pinned bit-identical by the
// TestOracleEquivalence* suites). The couple tries of a depth and its
// label sweep run over a worker pool.
func (o *Oracle) ComputeAdvice(g *graph.Graph) (*Advice, error) {
	return o.ComputeAdviceCtx(context.Background(), g)
}

// ComputeAdviceCtx is ComputeAdvice under a context: every depth of the
// quotient walk (refinement, ranks, the E2 level's tries, the label
// sweep) and the final label checks begin with a cancellation
// checkpoint, so a per-request timeout actually stops oracle work
// instead of merely abandoning its result. On cancellation the returned
// error wraps ctx.Err() (errors.Is-able against context.Canceled /
// context.DeadlineExceeded).
func (o *Oracle) ComputeAdviceCtx(ctx context.Context, g *graph.Graph) (*Advice, error) {
	n := g.N()
	if n < 3 {
		return nil, fmt.Errorf("advice: leader election on %d node(s) is degenerate; model requires n >= 3", n)
	}
	q := newQuotient(g)
	var e1 trie.Trie
	var e2 trie.E2
	for q.cur.k < n {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("advice: quotient canceled at depth %d: %w", q.depth+1, err)
		}
		if !q.step() {
			return nil, errors.New("advice: graph is infeasible (symmetric views)")
		}
		if q.depth == 1 {
			e1 = q.depth1()
		} else {
			lvl, err := q.level()
			if err != nil {
				return nil, err
			}
			e2 = append(e2, lvl)
			q.sweep(&e2[len(e2)-1])
		}
		// Ranks order the children of the next depth's rows; depth φ
		// has none.
		if q.cur.k < n {
			q.rank()
		}
	}
	phi := q.depth

	// Final labels: classes are singletons at depth φ. The validity
	// checks run in node order, so the diagnostics match the reference
	// oracle's.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("advice: label sweep canceled: %w", err)
	}
	labelOf := make([]int, n)
	for v, c := range q.cur.class {
		labelOf[v] = int(q.cur.label[c])
	}
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
	// Order A2 by (parent label, parent port), so the encoded advice is a
	// pure function of the anonymous graph: two port-isomorphic graphs
	// get bit-identical advice no matter how their construction numbered
	// the nodes. CanonicalBFSTree lists each parent's edges by port and
	// the labels are a permutation of 1..n, so a stable counting sort on
	// the parent label is the whole sort.
	edges := g.CanonicalBFSTree(root)
	at := make([]int, n+2)
	for _, e := range edges {
		at[labelOf[e.Parent]+1]++
	}
	for l := 1; l <= n; l++ {
		at[l+1] += at[l]
	}
	tree := make([]LabeledTreeEdge, len(edges))
	for _, e := range edges {
		l := labelOf[e.Parent]
		tree[at[l]] = LabeledTreeEdge{
			ParentLabel: l,
			ChildLabel:  labelOf[e.Child],
			PortParent:  e.PortParent,
			PortChild:   e.PortChild,
		}
		at[l]++
	}
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
