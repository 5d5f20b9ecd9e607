package shard

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
	"repro/internal/view"
)

// The view adapter.
//
// A worker runs sim.LabelProgram's recursion and nothing else. RunCtx
// still accepts view deciders, which read B^r(v) in Decide: it wraps
// each one in a viewProgram whose label is the id of the node's view in
// the caller's table. By Proposition 2.1 a node's depth-r view is its
// degree plus, port by port, the remote port and the neighbour's
// depth-(r−1) view, which is the row Table.Make hash-conses; so
// StepLabel resolves its own and its neighbours' labels to views, takes
// the remote ports from its own previous view, and interns one view.
// Inside one table two views are equal iff they are one pointer, so
// these labels name the view classes exactly, as Elect's labels do.
//
// Only the in-process engine can run the adapter: a label is an id in a
// table every shard shares, and worker processes share none. The ids
// resolve through one id-indexed slice the adapter owns (table ids are
// dense, so it costs at most a word per view of the table). It outlives worker
// incarnations, so a restarted shard's journaled ghost labels resolve
// through it too. The adapter's failures — an id past int32, a label
// that names no view — are errors, never a wrapped or guessed label;
// the worker checks for them after every sweep.

// viewLabels is one run's adapter: the caller's table and every view it
// has named by a label.
type viewLabels struct {
	tab *view.Table

	mu    sync.Mutex
	views []*view.View // views[id] is the view with that id, once labelled
	err   error        // the first failure
}

func newViewLabels(tab *view.Table) *viewLabels { return &viewLabels{tab: tab} }

// wrap returns f with every decider it makes run on labels.
func (x *viewLabels) wrap(f sim.Factory) sim.Factory {
	return func(v, deg int) sim.Decider { return &viewProgram{x: x, d: f(v, deg), node: v} }
}

// failure returns the adapter's first failure; a nil adapter (the
// deciders are label programs themselves) has none.
func (x *viewLabels) failure() error {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

func (x *viewLabels) fail(err error) {
	if x.err == nil {
		x.err = err
	}
}

// label names v by its id and publishes it to every shard of the run.
func (x *viewLabels) label(node int, v *view.View) int32 {
	x.mu.Lock()
	defer x.mu.Unlock()
	id := v.ID()
	if id > math.MaxInt32 {
		x.fail(fmt.Errorf("shard: node %d's view id %d does not fit an int32 label", node, id))
		return -1
	}
	if int(id) >= len(x.views) {
		x.views = append(x.views, make([]*view.View, int(id)+1-len(x.views))...)
	}
	x.views[id] = v
	return int32(id)
}

// resolve returns the depth-d view named by l, or records an
// *UnknownViewError and returns nil. Callers hold x.mu.
func (x *viewLabels) resolve(node int, l int32, d int) *view.View {
	var v *view.View
	if l >= 0 && int(l) < len(x.views) {
		v = x.views[l]
	}
	if v == nil || v.Depth != d {
		x.fail(&UnknownViewError{Node: node, Label: l, Depth: d})
		return nil
	}
	return v
}

// UnknownViewError reports a label the view adapter cannot resolve: a
// boundary label, received or restored from the journal, that names no
// view of the run's table at the depth the reading round needs.
type UnknownViewError struct {
	Node  int   // the node whose label step read it
	Label int32 // the unresolvable label
	Depth int   // the view depth the step needed
}

func (e *UnknownViewError) Error() string {
	return fmt.Sprintf("shard: node %d read label %d, which names no depth-%d view of this run",
		e.Node, e.Label, e.Depth)
}

// viewProgram is one node's view decider on labels. A node's program is
// called by one worker at a time, so edges, its scratch row, needs no
// lock.
type viewProgram struct {
	x     *viewLabels
	d     sim.Decider
	node  int
	edges []view.Edge
}

func (p *viewProgram) Decide(r int, b *view.View) ([]int, bool) { return p.d.Decide(r, b) }

func (p *viewProgram) row(deg int) []view.Edge {
	if cap(p.edges) < deg {
		p.edges = make([]view.Edge, deg)
	}
	return p.edges[:deg]
}

func (p *viewProgram) InitLabel(remote, nbrDeg []int32) int32 {
	edges := p.row(len(remote))
	for j := range remote {
		edges[j] = view.Edge{RemotePort: int(remote[j]), Child: p.x.tab.Leaf(int(nbrDeg[j]))}
	}
	return p.x.label(p.node, p.x.tab.Make(edges))
}

func (p *viewProgram) StepLabel(r int, own int32, nbr []int32) int32 {
	x, edges := p.x, p.row(len(nbr))
	x.mu.Lock()
	prev := x.resolve(p.node, own, r-1)
	for j := 0; prev != nil && j < len(nbr); j++ {
		c := x.resolve(p.node, nbr[j], r-1)
		if c == nil {
			prev = nil
		} else {
			edges[j] = view.Edge{RemotePort: prev.Edges[j].RemotePort, Child: c}
		}
	}
	x.mu.Unlock()
	if prev == nil {
		return -1
	}
	return x.label(p.node, x.tab.Make(edges))
}

// DecideLabel decides on the view the label names; a round-0 label is
// the node's degree, and its view the leaf.
func (p *viewProgram) DecideLabel(r int, label int32) ([]int, bool) {
	if r == 0 {
		return p.d.Decide(0, p.x.tab.Leaf(int(label)))
	}
	p.x.mu.Lock()
	v := p.x.resolve(p.node, label, r)
	p.x.mu.Unlock()
	if v == nil {
		return nil, false
	}
	return p.d.Decide(r, v)
}
