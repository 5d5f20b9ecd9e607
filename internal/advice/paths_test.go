package advice

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/view"
)

// referencePathToLeader is PathToLeader as it was before the path
// table: a parent index over tree in which the last edge naming a child
// wins, one walk to count the hops (a walk longer than the tree is a
// cycle) and a second to fill the path.
func referencePathToLeader(tree []LabeledTreeEdge, x int) ([]int, error) {
	if x == 1 {
		return []int{}, nil
	}
	parent := make([]LabeledTreeEdge, len(tree)+2)
	for _, e := range tree {
		if e.ChildLabel > 0 && e.ChildLabel < len(parent) {
			parent[e.ChildLabel] = e
		}
	}
	hops := 0
	for cur := x; cur != 1; cur = parent[cur].ParentLabel {
		if cur < 0 || cur >= len(parent) || parent[cur].ParentLabel == 0 {
			return nil, fmt.Errorf("advice: label %d not in tree", x)
		}
		hops++
		if hops > len(tree)+1 {
			return nil, errors.New("advice: cycle in tree encoding")
		}
	}
	ports := make([]int, 0, 2*hops)
	for cur := x; cur != 1; cur = parent[cur].ParentLabel {
		ports = append(ports, parent[cur].PortChild, parent[cur].PortParent)
	}
	return ports, nil
}

// referenceValidate is Validate as it was before the classify pass: a
// map from child to parent label and one walk to the root per label.
func referenceValidate(a *Advice) error {
	n := len(a.Tree) + 1
	parent := make(map[int]int, n)
	for _, e := range a.Tree {
		switch {
		case e.ChildLabel < 1 || e.ChildLabel > n || e.ParentLabel < 1 || e.ParentLabel > n:
			return fmt.Errorf("advice: tree label out of range [1,%d]", n)
		case e.ChildLabel == 1:
			return errors.New("advice: root label 1 appears as a child")
		case e.PortParent < 0 || e.PortChild < 0:
			return errors.New("advice: negative port in tree")
		}
		if _, dup := parent[e.ChildLabel]; dup {
			return fmt.Errorf("advice: label %d has two parents", e.ChildLabel)
		}
		parent[e.ChildLabel] = e.ParentLabel
	}
	for l := 2; l <= n; l++ {
		if _, ok := parent[l]; !ok {
			return fmt.Errorf("advice: label %d missing from tree", l)
		}
		cur, steps := l, 0
		for cur != 1 {
			cur = parent[cur]
			steps++
			if steps > n {
				return errors.New("advice: tree contains a cycle")
			}
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// fuzzTree decodes a fuzz input into tree edges, four bytes each
// (parent, child, parent port, child port), at most 48. Labels fall in
// [-1, m+3] for m edges and ports in [-1, 254], so label 0, negative
// labels, labels past m+1, negative ports, repeated children,
// self-loops, cycles and forests are all a byte flip away from a
// valid tree.
func fuzzTree(data []byte) []LabeledTreeEdge {
	m := min(len(data)/4, 48)
	label := func(c byte) int { return int(c%byte(m+5)) - 1 }
	tree := make([]LabeledTreeEdge, m)
	for i := range tree {
		e := data[4*i:]
		tree[i] = LabeledTreeEdge{
			ParentLabel: label(e[0]),
			ChildLabel:  label(e[1]),
			PortParent:  int(e[2]) - 1,
			PortChild:   int(e[3]) - 1,
		}
	}
	return tree
}

// treeBytes is fuzzTree's inverse on trees whose labels and ports are
// in range, for seeding the corpus with oracle advice.
func treeBytes(tree []LabeledTreeEdge) []byte {
	var data []byte
	for _, e := range tree {
		data = append(data, byte(e.ParentLabel+1), byte(e.ChildLabel+1), byte(e.PortParent+1), byte(e.PortChild+1))
	}
	return data
}

// FuzzAdviceTree pins the path table and Validate to their references
// on arbitrary edge lists: the same path, nil versus empty included,
// and the same error text for every label from -1 to len(Tree)+3; every
// path with cap == len, so appending to one changes no other; the same
// Validate error.
func FuzzAdviceTree(f *testing.F) {
	for _, g := range []*graph.Graph{graph.Path(5), graph.Lollipop(3, 14), graph.Grid(4, 3), graph.RandomConnected(12, 6, 3)} {
		a, err := NewOracle(view.NewTable()).ComputeAdvice(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(treeBytes(a.Tree))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tree := fuzzTree(data)
		a := &Advice{Tree: tree}
		got := make(map[int][]int)
		want := make(map[int][]int)
		for x := -1; x <= len(tree)+3; x++ {
			p, err := a.PathToLeader(x)
			q, wantErr := referencePathToLeader(tree, x)
			if errText(err) != errText(wantErr) {
				t.Fatalf("tree %v: PathToLeader(%d) error %v, reference %v", tree, x, err, wantErr)
			}
			if (p == nil) != (q == nil) || !slices.Equal(p, q) {
				t.Fatalf("tree %v: PathToLeader(%d) = %#v, reference %#v", tree, x, p, q)
			}
			if cap(p) != len(p) {
				t.Fatalf("tree %v: PathToLeader(%d) has len %d, cap %d", tree, x, len(p), cap(p))
			}
			got[x], want[x] = p, q
		}
		for x, p := range got {
			_ = append(p, -7)
			for y, q := range got {
				if !slices.Equal(q, want[y]) {
					t.Fatalf("tree %v: appending to label %d's path changed label %d's to %v", tree, x, y, q)
				}
			}
		}
		if err, wantErr := a.Validate(), referenceValidate(a); errText(err) != errText(wantErr) {
			t.Fatalf("tree %v: Validate %v, reference %v", tree, err, wantErr)
		}
	})
}

// TestPathTableSharesSuffixes pins the table's size: the slab holds one
// path per leaf, 2·Σ_leaves depth ints, and every label's path lies in
// it.
func TestPathTableSharesSuffixes(t *testing.T) {
	for name, g := range feasibleTestGraphs() {
		_, a := compute(t, g)
		n := len(a.Tree) + 1
		parent := make([]int, n+1)
		for _, e := range a.Tree {
			parent[e.ChildLabel] = e.ParentLabel
		}
		hasChild := make([]bool, n+1)
		for x := 2; x <= n; x++ {
			hasChild[parent[x]] = true
		}
		want := 0
		for x := 2; x <= n; x++ {
			if !hasChild[x] {
				p, err := referencePathToLeader(a.Tree, x)
				if err != nil {
					t.Fatal(err)
				}
				want += len(p)
			}
		}
		if _, err := a.PathToLeader(2); err != nil {
			t.Fatal(err)
		}
		slab := a.paths.slab
		if len(slab) != want {
			t.Errorf("%s: slab holds %d ints, want 2·Σ_leaves depth = %d", name, len(slab), want)
		}
		for x := 2; x <= n; x++ {
			p, _ := a.PathToLeader(x)
			if len(p) > 0 && !inSlab(slab, p) {
				t.Errorf("%s: label %d's path is not in the slab", name, x)
			}
		}
	}
}

// inSlab reports whether p is a subslice of slab.
func inSlab(slab, p []int) bool {
	for i := range slab {
		if &slab[i] == &p[0] {
			return i+len(p) <= len(slab)
		}
	}
	return false
}
