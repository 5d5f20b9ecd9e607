package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/view"
)

// TestBSPKnowledgeIsExactlyBr is the model guarantee for the
// class-sharing engine, strengthened to pointer identity: after r rounds
// every node must be handed the very interned view B^r(v) that direct
// refinement produces — class sharing may change how views are built,
// never which views.
func TestBSPKnowledgeIsExactlyBr(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := graph.Lollipop(5, 3)
		const rounds = 4
		tab := view.NewTable()
		levels := view.Levels(tab, g, rounds)
		deciders := make([]*stopAt, g.N())
		f := func(simID, deg int) Decider {
			d := &stopAt{round: rounds}
			deciders[simID] = d
			return d
		}
		if _, err := RunBSP(tab, g, f, 100, workers); err != nil {
			t.Fatal(err)
		}
		for v, d := range deciders {
			if len(d.seen) != rounds+1 {
				t.Fatalf("workers=%d: node %d saw %d views", workers, v, len(d.seen))
			}
			for r, b := range d.seen {
				if b != levels[r][v] {
					t.Errorf("workers=%d: node %d round %d: knowledge != B^%d(v)", workers, v, r, r)
				}
			}
		}
	}
}

// TestBSPMatchesSequential pins the full Result — Outputs, Rounds, Time,
// Messages — against RunSequential, on graphs where nodes decide at
// different rounds (the decided-but-participating semantics) and on a
// graph large enough that the sweep actually runs on the worker pool.
func TestBSPMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path6", graph.Path(6)},
		{"lollipop", graph.Lollipop(5, 4)},
		{"random", graph.RandomConnected(60, 40, 11)},
		{"pooled-path", graph.Path(3000)}, // n >= par.For's inline cutoff: fanned out
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Factory {
				return func(simID, deg int) Decider {
					round := 4
					if deg == 1 {
						round = 1
					}
					return &stopAt{round: round, out: []int{}}
				}
			}
			want, err := RunSequential(view.NewTable(), tc.g, mk(), 100)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunBSP(view.NewTable(), tc.g, mk(), 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Time != want.Time || got.Messages != want.Messages {
				t.Errorf("time/messages: got (%d,%d), want (%d,%d)",
					got.Time, got.Messages, want.Time, want.Messages)
			}
			for v := range want.Rounds {
				if got.Rounds[v] != want.Rounds[v] {
					t.Errorf("node %d round: got %d, want %d", v, got.Rounds[v], want.Rounds[v])
				}
			}
			if got.ClassViews <= 0 {
				t.Error("ClassViews not reported")
			}
		})
	}
}

func TestBSPMaxRoundsGuard(t *testing.T) {
	g := graph.Path(3)
	f := func(simID, deg int) Decider { return never{} }
	_, err := RunBSP(view.NewTable(), g, f, 5, 0)
	if err == nil || !strings.Contains(err.Error(), "undecided after") {
		t.Errorf("expected max-rounds error, got %v", err)
	}
}

// panicAt triggers a decider panic mid-run to check that the worker pool
// re-raises it on the engine goroutine, like the sequential loop would.
type panicAt struct{ id int }

func (p panicAt) Decide(r int, b *view.View) ([]int, bool) {
	if r == 1 && p.id == 1700 {
		panic("decider boom")
	}
	if r >= 2 {
		return []int{}, true
	}
	return nil, false
}

func TestBSPDeciderPanicPropagates(t *testing.T) {
	g := graph.Path(3000)
	f := func(simID, deg int) Decider { return panicAt{id: simID} }
	defer func() {
		if p := recover(); p == nil {
			t.Error("expected the decider panic to propagate")
		}
	}()
	RunBSP(view.NewTable(), g, f, 10, 4)
}

// TestBSPClassViewsShrink checks the point of the engine: on a highly
// symmetric graph the number of interned representative views per round
// is the class count, not the node count.
func TestBSPClassViewsShrink(t *testing.T) {
	g := graph.Torus(10, 10) // vertex-transitive with aligned ports: 1 class
	f := func(simID, deg int) Decider { return &stopAt{round: 3, out: []int{}} }
	res, err := RunBSP(view.NewTable(), g, f, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4 sweeps (rounds 0..3) over 100 nodes, but the unshuffled torus has
	// a single view class at every depth: 1 leaf + 3 Makes.
	if res.ClassViews != 4 {
		t.Errorf("ClassViews = %d, want 4", res.ClassViews)
	}
}

// mixLabels is a synthetic LabelProgram: its label hashes the whole
// view, it decides at a round that depends on its degree and outputs
// its label, so any label that is wrong, stale or read from the wrong
// port or round changes some output. Decide computes the same hash
// recursively on the view.
type mixLabels struct {
	tab   *view.Table
	round int
}

func mix(h, x int32) int32 { return h*1000003 ^ x }

func (p *mixLabels) InitLabel(remote, nbrDeg []int32) int32 {
	h := int32(len(remote))
	for j := range remote {
		h = mix(mix(h, remote[j]), nbrDeg[j])
	}
	return h
}

func (p *mixLabels) StepLabel(r int, own int32, nbr []int32) int32 {
	h := mix(own, int32(r))
	for _, x := range nbr {
		h = mix(h, x)
	}
	return h
}

func (p *mixLabels) DecideLabel(r int, label int32) ([]int, bool) {
	if r < p.round {
		return nil, false
	}
	return []int{int(label)}, true
}

func (p *mixLabels) Decide(r int, b *view.View) ([]int, bool) {
	return p.DecideLabel(r, p.label(b))
}

func (p *mixLabels) label(b *view.View) int32 {
	switch b.Depth {
	case 0:
		return int32(b.Deg)
	case 1:
		remote, nbrDeg := make([]int32, b.Deg), make([]int32, b.Deg)
		for j, e := range b.Edges {
			remote[j], nbrDeg[j] = int32(e.RemotePort), int32(e.Child.Deg)
		}
		return p.InitLabel(remote, nbrDeg)
	}
	nbr := make([]int32, b.Deg)
	for j, e := range b.Edges {
		nbr[j] = p.label(e.Child)
	}
	return p.StepLabel(b.Depth, p.label(p.tab.Truncate(b)), nbr)
}

// TestBSPRunsLabelPrograms pins the label path of RunBSP against
// RunSequential running the same programs on views: full Result, on
// graphs where nodes decide at different rounds and keep relaying
// labels after deciding, inline and on the worker pool.
func TestBSPRunsLabelPrograms(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path6", graph.Path(6)},
		{"lollipop", graph.Lollipop(5, 4)},
		{"random", graph.RandomConnected(60, 40, 11)},
		{"pooled-path", graph.Path(3000)}, // n >= par.For's inline cutoff: fanned out
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := view.NewTable()
			f := func(simID, deg int) Decider { return &mixLabels{tab: tab, round: 1 + deg%3} }
			want, err := RunSequential(tab, tc.g, f, 100)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunBSP(view.NewTable(), tc.g, f, 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.ClassViews != 0 {
				t.Errorf("label programs interned %d class views", got.ClassViews)
			}
			if got.Time != want.Time || got.Messages != want.Messages {
				t.Errorf("time/messages: got (%d,%d), want (%d,%d)", got.Time, got.Messages, want.Time, want.Messages)
			}
			if !reflect.DeepEqual(got.Rounds, want.Rounds) || !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Error("per-node rounds or outputs differ from RunSequential on views")
			}
		})
	}
	// A program that never decides trips the same budget on labels.
	tab := view.NewTable()
	f := func(simID, deg int) Decider { return &mixLabels{tab: tab, round: 1 << 30} }
	_, errL := RunBSP(tab, graph.Path(5), f, 7, 0)
	_, errV := RunSequential(tab, graph.Path(5), f, 7)
	var se *StuckError
	if !errors.As(errL, &se) || errV == nil || errL.Error() != errV.Error() {
		t.Errorf("round budget: labels %v, views %v", errL, errV)
	}
}
