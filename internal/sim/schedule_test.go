package sim

import (
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/view"
)

// scheduleRow is one asynchronous run's schedule: the virtual time of
// the last delivery, the largest round skew, the delivered messages and
// the logical time.
type scheduleRow struct {
	graph, model string
	seed         int64
	virtualTime  float64
	maxSkew      int
	messages     int
	time         int
}

// scheduleRows were recorded when the asynchronous engine still derived
// every round's views itself and called the deciders inside its event
// loop. The schedule depends on the decision rounds alone, so replaying
// RunBSP's decisions must reproduce it exactly. They were recorded on
// linux/amd64 with FMA: the exp and pareto delays pass through math.Exp
// and math.Log, whose assembly differs by architecture and, on amd64,
// by FMA support, so those rows can differ in the last bits elsewhere.
var scheduleRows = []scheduleRow{
	{"lollipop", "exp", 0, 12.916597308348177, 5, 148, 6},
	{"lollipop", "exp", 1, 12.724969828490522, 4, 152, 6},
	{"lollipop", "exp", 2, 10.918341294120378, 3, 146, 6},
	{"lollipop", "fifo", 0, 4.5479741174541335, 3, 154, 6},
	{"lollipop", "fifo", 1, 4.5487855385492155, 3, 148, 6},
	{"lollipop", "fifo", 2, 4.801448750061225, 2, 155, 6},
	{"lollipop", "fixed", 0, 4.823663223444429, 2, 149, 6},
	{"lollipop", "fixed", 1, 4.229409575669552, 2, 146, 6},
	{"lollipop", "fixed", 2, 4.617927962859854, 3, 148, 6},
	{"lollipop", "pareto", 0, 3.199627599970224, 5, 148, 6},
	{"lollipop", "pareto", 1, 2.856230023288683, 3, 147, 6},
	{"lollipop", "pareto", 2, 8.185287949833798, 4, 194, 6},
	{"lollipop", "slowcut", 0, 80, 3, 144, 6},
	{"lollipop", "slowcut", 1, 80, 3, 144, 6},
	{"lollipop", "slowcut", 2, 80, 3, 144, 6},
	{"lollipop", "uniform", 0, 4.5479741174541335, 3, 155, 6},
	{"lollipop", "uniform", 1, 4.5487855385492155, 3, 148, 6},
	{"lollipop", "uniform", 2, 4.801448750061225, 2, 155, 6},
	{"random60", "exp", 0, 17.95870716607712, 6, 1263, 6},
	{"random60", "exp", 1, 19.144439088698636, 5, 1419, 6},
	{"random60", "exp", 2, 18.5750471872067, 5, 1498, 6},
	{"random60", "fifo", 0, 5.250745818805324, 2, 1077, 6},
	{"random60", "fifo", 1, 5.63935968892041, 2, 1155, 6},
	{"random60", "fifo", 2, 5.397850167032768, 3, 1119, 6},
	{"random60", "fixed", 0, 5.771504156375343, 3, 1168, 6},
	{"random60", "fixed", 1, 5.719898197074377, 2, 1166, 6},
	{"random60", "fixed", 2, 5.575226956469432, 2, 1094, 6},
	{"random60", "pareto", 0, 15.516861595670026, 6, 1283, 6},
	{"random60", "pareto", 1, 13.913690573118876, 5, 1259, 6},
	{"random60", "pareto", 2, 9.904645867173098, 8, 1293, 6},
	{"random60", "slowcut", 0, 96, 2, 1080, 6},
	{"random60", "slowcut", 1, 96, 2, 1080, 6},
	{"random60", "slowcut", 2, 96, 2, 1080, 6},
	{"random60", "uniform", 0, 5.250745818805324, 2, 1083, 6},
	{"random60", "uniform", 1, 5.63935968892041, 2, 1156, 6},
	{"random60", "uniform", 2, 5.397850167032768, 3, 1122, 6},
	{"ring32", "exp", 0, 11.695133746184494, 9, 548, 6},
	{"ring32", "exp", 1, 15.914399765438747, 11, 573, 6},
	{"ring32", "exp", 2, 13.633935792250494, 10, 595, 6},
	{"ring32", "fifo", 0, 4.571566061121746, 2, 399, 6},
	{"ring32", "fifo", 1, 4.755661241070307, 3, 407, 6},
	{"ring32", "fifo", 2, 4.941459351787467, 3, 407, 6},
	{"ring32", "fixed", 0, 4.705154944828413, 4, 419, 6},
	{"ring32", "fixed", 1, 5.286654296643002, 3, 432, 6},
	{"ring32", "fixed", 2, 5.470892233689736, 3, 452, 6},
	{"ring32", "pareto", 0, 7.223379159311953, 7, 518, 6},
	{"ring32", "pareto", 1, 12.797147378930575, 14, 766, 6},
	{"ring32", "pareto", 2, 7.600624736185103, 13, 655, 6},
	{"ring32", "slowcut", 0, 80.05, 7, 546, 6},
	{"ring32", "slowcut", 1, 80.05, 7, 546, 6},
	{"ring32", "slowcut", 2, 80.05, 7, 546, 6},
	{"ring32", "uniform", 0, 4.571566061121746, 2, 403, 6},
	{"ring32", "uniform", 1, 4.755661240070307, 3, 407, 6},
	{"ring32", "uniform", 2, 4.941459351787467, 3, 408, 6},
	{"path3000", "exp", 0, 23.123697362221677, 17, 78056, 6},
	{"path3000", "exp", 1, 24.240967231152297, 18, 80250, 6},
	{"path3000", "exp", 2, 20.085628816578392, 20, 79141, 6},
	{"path3000", "fifo", 0, 5.497861215395667, 4, 43723, 6},
	{"path3000", "fifo", 1, 5.398546516555759, 4, 42852, 6},
	{"path3000", "fifo", 2, 5.58093608717965, 4, 44464, 6},
	{"path3000", "fixed", 0, 5.844208664506594, 7, 47163, 6},
	{"path3000", "fixed", 1, 5.925748639555024, 6, 47122, 6},
	{"path3000", "fixed", 2, 5.966254563703435, 6, 47584, 6},
	{"path3000", "pareto", 0, 89.12904346966774, 79, 304795, 6},
	{"path3000", "pareto", 1, 484.5677629527313, 254, 893613, 6},
	{"path3000", "pareto", 2, 222.69376977120615, 148, 581818, 6},
	{"path3000", "slowcut", 0, 64.1, 1499, 4518000, 6},
	{"path3000", "slowcut", 1, 64.1, 1499, 4518000, 6},
	{"path3000", "slowcut", 2, 64.1, 1499, 4518000, 6},
	{"path3000", "uniform", 0, 5.497861215395667, 4, 43998, 6},
	{"path3000", "uniform", 1, 5.398546516555759, 4, 43131, 6},
	{"path3000", "uniform", 2, 5.58093608717965, 4, 44747, 6},
}

// TestAsyncSchedulePinned fixes the asynchronous schedule — VirtualTime
// bit for bit, MaxSkew, Messages and Time — on a small graph, a random
// one, a ring and a path long enough for RunBSP's pooled sweep (on more
// than one CPU), under every delay model with three seeds. The deciders
// stop at rounds that depend on the degree and the node id.
func TestAsyncSchedulePinned(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"lollipop", graph.Lollipop(5, 4)},
		{"random60", graph.RandomConnected(60, 30, 3)},
		{"ring32", graph.Ring(32)},
		{"path3000", graph.Path(3000)},
	}
	f := func(simID, deg int) Decider { return &stopAt{round: 2 + (deg+simID)%5, out: []int{}} }
	var got []scheduleRow
	for _, gr := range graphs {
		name, g := gr.name, gr.g
		models := AllDelayModels(g)
		names := make([]string, 0, len(models))
		for m := range models {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			for seed := int64(0); seed < 3; seed++ {
				res, err := RunAsync(view.NewTable(), g, f, DefaultMaxRounds(g), seed, models[m])
				if err != nil {
					t.Fatalf("%s %s seed %d: %v", name, m, seed, err)
				}
				got = append(got, scheduleRow{name, m, seed, res.VirtualTime, res.MaxSkew, res.Messages, res.Time})
			}
		}
	}
	if len(got) != len(scheduleRows) {
		t.Fatalf("%d runs, %d pinned rows", len(got), len(scheduleRows))
	}
	for i, want := range scheduleRows {
		if got[i] != want {
			t.Errorf("got  %+v\nwant %+v", got[i], want)
		}
	}
}

// TestAsyncScheduleErrorsPinned fixes the exact text of the schedule's
// failures, recorded with scheduleRows: budget trips where some nodes
// decide part-way and others never, budget trips on runs RunBSP
// completes (the slow cut lets the fast arc race past the budget), and
// a severed cut's quiescence.
func TestAsyncScheduleErrorsPinned(t *testing.T) {
	partial := func(simID, deg int) Decider {
		switch simID % 3 {
		case 0:
			return &stopAt{round: 2, out: []int{}}
		case 1:
			return &stopAt{round: 4, out: []int{}}
		}
		return never{}
	}
	path12, ring32 := graph.Path(12), graph.Ring(32)
	slow12 := AllDelayModels(path12)["slowcut"]
	half := make([]bool, 32)
	for v := 0; v < 16; v++ {
		half[v] = true
	}
	stop12 := func(simID, deg int) Decider { return &stopAt{round: 12, out: []int{}} }
	cut3 := make([]bool, 8)
	cut3[0], cut3[1], cut3[2] = true, true, true
	stop6 := func(simID, deg int) Decider { return &stopAt{round: 6, out: []int{}} }
	cases := []struct {
		name      string
		g         *graph.Graph
		f         Factory
		maxRounds int
		seed      int64
		model     DelayModel
		want      string
	}{
		{"partial budget, uniform, seed 0", path12, partial, 5, 0, nil,
			"sim: round budget of 5 exceeded: 4 nodes undecided after 5 rounds; undecided nodes at rounds 4..5 (node 2@r5, node 5@r5, node 8@r4, node 11@r5), 15 pending events"},
		{"partial budget, slowcut, seed 0", path12, partial, 5, 0, slow12,
			"sim: round budget of 5 exceeded: 7 nodes undecided after 5 rounds; undecided nodes at rounds 1..5 (node 2@r4, node 4@r2, node 5@r1, node 6@r1), 4 pending events"},
		{"partial budget, uniform, seed 1", path12, partial, 5, 1, nil,
			"sim: round budget of 5 exceeded: 4 nodes undecided after 5 rounds; undecided nodes at rounds 4..5 (node 2@r5, node 5@r5, node 8@r5, node 11@r4), 14 pending events"},
		{"partial budget, slowcut, seed 1", path12, partial, 5, 1, slow12,
			"sim: round budget of 5 exceeded: 7 nodes undecided after 5 rounds; undecided nodes at rounds 1..5 (node 2@r4, node 4@r2, node 5@r1, node 6@r1), 4 pending events"},
		{"partial budget, uniform, seed 2", path12, partial, 5, 2, nil,
			"sim: round budget of 5 exceeded: 4 nodes undecided after 5 rounds; undecided nodes at rounds 3..5 (node 2@r4, node 5@r3, node 8@r4, node 11@r5), 11 pending events"},
		{"partial budget, slowcut, seed 2", path12, partial, 5, 2, slow12,
			"sim: round budget of 5 exceeded: 7 nodes undecided after 5 rounds; undecided nodes at rounds 1..5 (node 2@r4, node 4@r2, node 5@r1, node 6@r1), 4 pending events"},
		{"ring32 slowcut budget 12", ring32, stop12, 12, 1, NewSlowCutDelay(half, 50, 0.01),
			"sim: round budget of 12 exceeded: 24 nodes undecided after 12 rounds; undecided nodes at rounds 6..11 (node 0@r6, node 1@r7, node 2@r8, node 3@r9), 11 pending events"},
		{"ring32 slowcut budget 13", ring32, stop12, 13, 1, NewSlowCutDelay(half, 50, 0.01),
			"sim: round budget of 13 exceeded: 20 nodes undecided after 13 rounds; undecided nodes at rounds 7..11 (node 0@r7, node 1@r8, node 2@r9, node 3@r10), 10 pending events"},
		{"ring32 slowcut budget 14", ring32, stop12, 14, 1, NewSlowCutDelay(half, 50, 0.01),
			"sim: round budget of 14 exceeded: 16 nodes undecided after 14 rounds; undecided nodes at rounds 8..11 (node 0@r8, node 1@r9, node 2@r10, node 3@r11), 11 pending events"},
		{"ring32 slowcut budget 15", ring32, stop12, 15, 1, NewSlowCutDelay(half, 50, 0.01),
			"sim: round budget of 15 exceeded: 12 nodes undecided after 15 rounds; undecided nodes at rounds 9..11 (node 0@r9, node 1@r10, node 2@r11, node 13@r11), 10 pending events"},
		{"ring32 slowcut budget 16", ring32, stop12, 16, 1, NewSlowCutDelay(half, 50, 0.01),
			"sim: round budget of 16 exceeded: 8 nodes undecided after 16 rounds; undecided nodes at rounds 10..11 (node 0@r10, node 1@r11, node 14@r11, node 15@r10), 11 pending events"},
		{"severed cut", graph.Ring(8), stop6, 100, 1, NewSlowCutDelay(cut3, Drop, 0.1),
			"sim: network quiesced: 8 nodes undecided; undecided nodes at rounds 0..2 (node 0@r0, node 1@r1, node 2@r0, node 3@r0), 0 pending events"},
	}
	for _, c := range cases {
		_, err := RunAsync(view.NewTable(), c.g, c.f, c.maxRounds, c.seed, c.model)
		if err == nil {
			t.Errorf("%s: no error, want %q", c.name, c.want)
		} else if err.Error() != c.want {
			t.Errorf("%s: error\n %q\nwant\n %q", c.name, err, c.want)
		}
	}
	// RunBSP completes the runs the slow cut trips.
	if _, err := RunBSP(view.NewTable(), ring32, stop12, 12, 0); err != nil {
		t.Errorf("RunBSP at budget 12: %v", err)
	}
}
