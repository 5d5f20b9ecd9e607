package election

// Algorithm Elect runs on labels in sim.RunBSP (and so in sim.RunAsync,
// which replays RunBSP's election on its schedule) and on views
// elsewhere, such as the sequential reference. On advice that fits the
// graph both elect the same leader; these tests pin that they also fail
// identically on advice that does not —
// foreign advice (the lower-bound demonstrations of Claims 3.9 and
// 3.11 and Proposition 4.1) and hand-corrupted advice — because the
// failures are what the lower-bound arguments observe. The results are
// compared directly, since RunElect reduces a failed election to a
// Verify error.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/advice"
	"repro/internal/algorithms"
	"repro/internal/sim"
	"repro/internal/trie"
	"repro/internal/view"
)

// requireLabelsMatchViews runs Elect with adv on g on labels
// (sim.RunBSP) and on views (sim.RunSequential) and requires the same
// Outputs (telling nil from empty), Rounds, Time and Messages, or the
// same *StuckError. It also runs Elect on the asynchronous engine
// (uniform delays, seed 1), which must elect on labels too: the same
// Outputs, Rounds and Time as the views, no class view, or a
// *StuckError where the others fail (its Messages and failure text are
// the schedule's).
func requireLabelsMatchViews(tb testing.TB, name string, g *Graph, adv *Advice) {
	tb.Helper()
	maxRounds := sim.DefaultMaxRounds(g)
	tab := view.NewTable()
	labels, errL := sim.RunBSP(tab, g, algorithms.NewElectFactoryDecoded(tab, adv), maxRounds, 0)
	tab = view.NewTable()
	views, errV := sim.RunSequential(tab, g, algorithms.NewElectFactoryDecoded(tab, adv), maxRounds)
	tab = view.NewTable()
	async, errA := sim.RunAsync(tab, g, algorithms.NewElectFactoryDecoded(tab, adv), maxRounds, 1, nil)
	if errL != nil || errV != nil {
		var se *sim.StuckError
		if !errors.As(errL, &se) || !errors.As(errV, &se) || errL.Error() != errV.Error() {
			tb.Fatalf("%s: labels failed with %v, views with %v", name, errL, errV)
		}
		if !errors.As(errA, &se) {
			tb.Fatalf("%s: views failed with %v, async with %v", name, errV, errA)
		}
		return
	}
	if errA != nil {
		tb.Fatalf("%s: async failed with %v", name, errA)
	}
	if labels.ClassViews != 0 {
		tb.Errorf("%s: RunBSP interned %d class views; Elect should run on labels", name, labels.ClassViews)
	}
	if async.ClassViews != 0 {
		tb.Errorf("%s: RunAsync interned %d class views; Elect should run on labels", name, async.ClassViews)
	}
	if async.Time != views.Time {
		tb.Errorf("%s: async time %d, views %d", name, async.Time, views.Time)
	}
	if !reflect.DeepEqual(async.Rounds, views.Rounds) {
		tb.Errorf("%s: per-node rounds differ: async %v, views %v", name, async.Rounds, views.Rounds)
	}
	if !reflect.DeepEqual(async.Outputs, views.Outputs) {
		tb.Errorf("%s: per-node outputs differ: async %v, views %v", name, async.Outputs, views.Outputs)
	}
	if labels.Time != views.Time || labels.Messages != views.Messages {
		tb.Errorf("%s: labels (time %d, messages %d), views (time %d, messages %d)",
			name, labels.Time, labels.Messages, views.Time, views.Messages)
	}
	if !reflect.DeepEqual(labels.Rounds, views.Rounds) {
		tb.Errorf("%s: per-node rounds differ: labels %v, views %v", name, labels.Rounds, views.Rounds)
	}
	if !reflect.DeepEqual(labels.Outputs, views.Outputs) {
		tb.Errorf("%s: per-node outputs differ: labels %v, views %v", name, labels.Outputs, views.Outputs)
	}
}

func TestElectLabelsMatchViewsOnWrongAdvice(t *testing.T) {
	s := NewSystem()
	adviceOf := func(g *Graph) *Advice {
		a, _, err := s.ComputeAdvice(g)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	type run struct {
		name string
		g    *Graph
		adv  *Advice
	}
	var runs []run

	// The cross-advice pairs of lowerbounds_test.go, each advice also on
	// its own graph.
	gk1 := BuildGkMember(5, 3, []int{0, 1, 2, 3, 4}).G
	gk2 := BuildGkMember(5, 3, []int{0, 2, 1, 4, 3}).G
	runs = append(runs, run{"Gk own", gk1, adviceOf(gk1)}, run{"Gk cross (Claim 3.9)", gk2, adviceOf(gk1)})
	n1 := BuildNecklace(4, 3, 2, NecklaceCode(4, 3, 0)).G
	n2 := BuildNecklace(4, 3, 2, NecklaceCode(4, 3, 3)).G
	runs = append(runs, run{"necklace own", n1, adviceOf(n1)}, run{"necklace cross (Claim 3.11)", n2, adviceOf(n1)})
	perms := [][]int{{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 1, 3, 2}, {0, 3, 2, 1}}
	for i, pa := range perms {
		for j, pb := range perms {
			runs = append(runs, run{fmt.Sprintf("Gk(4) advice %d on member %d", i, j),
				BuildGkMember(4, 3, pb).G, adviceOf(BuildGkMember(4, 3, pa).G)})
		}
	}
	h1 := BuildHairyRing([]int{2, 0, 3, 1})
	h2 := BuildHairyRing([]int{1, 4, 0, 2})
	cg := BuildComposed([]Cut{h1.CutAt(0), h2.CutAt(0)}, 6, 7)
	runs = append(runs, run{"hairy own", h1.G, adviceOf(h1.G)}, run{"hairy on composed (Prop. 4.1)", cg.H.G, adviceOf(h1.G)})

	// Hand-built advice on a graph with φ = 3, so E2 has two levels.
	g := BuildNecklace(4, 3, 3, NecklaceCode(4, 3, 1)).G
	a := adviceOf(g)
	if a.Phi != 3 || len(a.E2) != 2 {
		t.Fatalf("necklace(4,3,3): φ = %d with %d E2 levels, want 3 and 2", a.Phi, len(a.E2))
	}
	cycle := append([]advice.LabeledTreeEdge(nil), a.Tree...)
	cycle[len(cycle)-1].ParentLabel = cycle[len(cycle)-1].ChildLabel
	rotated := append(append([]advice.LabeledTreeEdge(nil), a.Tree[1:]...), a.Tree[0])
	for i := range rotated {
		rotated[i].ChildLabel = a.Tree[i].ChildLabel
	}
	// The root query of level 2's first trie asks about port 100: the
	// nodes that reach it panic at depth 2, and only their poisoned
	// labels tell their neighbors, which do not panic, to self-elect.
	toks := a.E2.TokensE2() // levels, depth, couples, J, then the trie: tag 1, port, label, ...
	if toks[1] != 2 || toks[2] < 1 || toks[4] != 1 {
		t.Fatalf("E2 tokens %v do not start with a level-2 couple", toks[:5])
	}
	toks[5] = 100
	farPort, err := trie.E2FromTokens(toks)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs,
		run{"φ = 0", g, &Advice{Phi: 0, E1: a.E1, E2: a.E2, Tree: a.Tree}},
		run{"φ = 1", g, &Advice{Phi: 1, E1: a.E1, E2: a.E2, Tree: a.Tree}},
		run{"nil E1", g, &Advice{Phi: a.Phi, E1: nil, E2: a.E2, Tree: a.Tree}},
		run{"E2 shorter than φ", g, &Advice{Phi: a.Phi, E1: a.E1, E2: a.E2[:1], Tree: a.Tree}},
		run{"no E2", g, &Advice{Phi: a.Phi, E1: a.E1, Tree: a.Tree}},
		run{"E2 query past a node's ports", g, &Advice{Phi: a.Phi, E1: a.E1, E2: farPort, Tree: a.Tree}},
		run{"truncated tree", g, &Advice{Phi: a.Phi, E1: a.E1, E2: a.E2, Tree: a.Tree[:len(a.Tree)/2]}},
		run{"tree with a cycle", g, &Advice{Phi: a.Phi, E1: a.E1, E2: a.E2, Tree: cycle}},
		run{"tree ports rotated", g, &Advice{Phi: a.Phi, E1: a.E1, E2: a.E2, Tree: rotated}},
		run{"φ past the round budget", g, &Advice{Phi: sim.DefaultMaxRounds(g) + 1, E1: a.E1, E2: a.E2, Tree: a.Tree}},
	)
	for _, r := range runs {
		requireLabelsMatchViews(t, r.name, r.g, r.adv)
	}
}
