package advice

import (
	"errors"
	"fmt"
)

// What classify says of a label. A label that reaches 1 gets its hop
// count instead, which is positive for every label but 1.
const (
	unclassified int32 = 0  // not reached by the pass yet
	deadEnd      int32 = -1 // its chain meets a missing or out-of-range parent
	looping      int32 = -2 // its chain enters a cycle that avoids label 1
	onChain      int32 = -3 // on the chain the pass is classifying
)

var errCycle = errors.New("advice: cycle in tree encoding")

// classify returns, for every label x of the dense parent index
// (parent[x] is x's parent label, 0 for none), the number of hops from
// x to label 1, or deadEnd, or looping; depth[1] is 0. It follows each
// chain iteratively and stops at the first label it has already
// classified, so every label is pushed once and the pass is
// O(len(parent)) on any input. An unvalidated tree can carry cycles
// and chains as long as the tree, so it neither recurses nor trusts a
// hop bound.
func classify(parent []int32) []int32 {
	depth := make([]int32, len(parent))
	chain := make([]int32, 0, len(parent))
	for x := range parent {
		if x == 1 || depth[x] != unclassified {
			continue
		}
		chain = chain[:0]
		end := int32(0) // label 1's depth, unless the chain stops short
		for cur := int32(x); cur != 1; cur = parent[cur] {
			if d := depth[cur]; d != unclassified {
				end = d
				if d == onChain {
					end = looping
				}
				break
			}
			depth[cur] = onChain
			chain = append(chain, cur)
			if parent[cur] == 0 {
				end = deadEnd
				break
			}
		}
		for i := len(chain) - 1; i >= 0; i-- {
			if end >= 0 {
				end++
			}
			depth[chain[i]] = end
		}
	}
	return depth
}

// pathTable holds PathToLeader's answer for every label of an advice
// tree. The path of a label x that reaches 1 in d hops is one pair
// (PortChild, PortParent) followed by its parent's path, so paths are
// suffixes of one another: the table writes the path of every leaf
// (a reaching label that no reaching label names as parent) once into
// one slab, and every label on that path whose own path is not written
// yet takes the suffix that starts at its pair. The slab holds
// 2·Σ_leaves depth ints instead of 2·Σ_labels depth, and a lookup
// allocates nothing.
type pathTable struct {
	slab  []int
	off   []int   // slab offset of each reaching label's path
	depth []int32 // classify's result
}

// newPathTable indexes tree the way PathToLeader always read it: labels
// 0..len(tree)+1, and for a child label named by several edges, the
// last edge wins.
func newPathTable(tree []LabeledTreeEdge) *pathTable {
	n := len(tree) + 2
	edge := make([]int32, n) // 1 + index in tree of the edge up from each label; 0 for none
	for i, e := range tree {
		if e.ChildLabel > 0 && e.ChildLabel < n {
			edge[e.ChildLabel] = int32(i + 1)
		}
	}
	parent := make([]int32, n)
	for x := 2; x < n; x++ {
		if i := edge[x]; i != 0 {
			if p := tree[i-1].ParentLabel; p > 0 && p < n {
				parent[x] = int32(p)
			}
		}
	}
	depth := classify(parent)

	const (
		leaf   = iota // no reaching label below it
		inner         // path not placed yet
		placed        // off is set
	)
	kind := make([]uint8, n)
	for x := 2; x < n; x++ {
		if depth[x] > 0 {
			kind[parent[x]] = inner
		}
	}
	size := 0
	for x := 2; x < n; x++ {
		if depth[x] > 0 && kind[x] == leaf {
			size += 2 * int(depth[x])
		}
	}
	t := &pathTable{slab: make([]int, size), off: make([]int, n), depth: depth}
	pos := 0
	for l := 2; l < n; l++ {
		if depth[l] <= 0 || kind[l] != leaf {
			continue
		}
		for x := l; x != 1; x = int(parent[x]) {
			if kind[x] == placed {
				// An earlier leaf wrote x's path, and so every label above it.
				pos += copy(t.slab[pos:], t.path(x))
				break
			}
			kind[x], t.off[x] = placed, pos
			e := tree[edge[x]-1]
			t.slab[pos], t.slab[pos+1] = e.PortChild, e.PortParent
			pos += 2
		}
	}
	return t
}

// path returns the path of a label that reaches 1, sliced with cap ==
// len so that a caller's append copies instead of overwriting the
// slab.
func (t *pathTable) path(x int) []int {
	lo := t.off[x]
	hi := lo + 2*int(t.depth[x])
	return t.slab[lo:hi:hi]
}

// PathToLeader returns the port sequence of the unique simple path in the
// advice tree from the node labeled x to the root (labeled 1). It returns
// an error if x does not occur in the tree, or if its chain of parents
// loops. The first call builds every label's path (pathTable); later
// calls allocate nothing. The returned slice is read-only: paths share
// their backing array with the paths of other labels.
func (a *Advice) PathToLeader(x int) ([]int, error) {
	if x == 1 {
		return []int{}, nil
	}
	a.pathsOnce.Do(func() { a.paths = newPathTable(a.Tree) })
	t := a.paths
	if x < 0 || x >= len(t.depth) || t.depth[x] == deadEnd {
		return nil, fmt.Errorf("advice: label %d not in tree", x)
	}
	if t.depth[x] == looping {
		return nil, errCycle
	}
	return t.path(x), nil
}
