//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package algorithms

import (
	"runtime/debug"
	"testing"

	"repro/internal/advice"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// TestFactoryAllocs checks that every factory hands all nodes one
// shared, read-only decider: a sweep over n nodes allocates nothing.
func TestFactoryAllocs(t *testing.T) {
	g := graph.RandomConnected(24, 12, 5)
	tab := view.NewTable()
	o := advice.NewOracle(tab)
	a, err := o.ComputeAdvice(g)
	if err != nil {
		t.Fatal(err)
	}
	na, err := o.ComputeNaiveAdvice(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewNaiveElectFactory(tab, na.Encode())
	if err != nil {
		t.Fatal(err)
	}
	fullMap, _, err := NewFullMapFactory(tab, g)
	if err != nil {
		t.Fatal(err)
	}
	dPlusPhi, err := NewDPlusPhiFactory(tab, DPlusPhiAdvice(g.Diameter(), a.Phi))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]sim.Factory{
		"elect":    NewElectFactoryDecoded(tab, a),
		"generic":  NewGenericFactory(tab, a.Phi),
		"naive":    naive,
		"tree":     NewTreeElectFactory(tab),
		"fullmap":  fullMap,
		"dplusphi": dPlusPhi,
	} {
		sweep := func() {
			for v := 0; v < g.N(); v++ {
				_ = f(v, g.Deg(v))
			}
		}
		if got := testing.AllocsPerRun(10, sweep); got != 0 {
			t.Errorf("%s: a factory sweep over %d nodes allocates %v times, want 0", name, g.N(), got)
		}
	}
}

// TestElectLabelSweepAllocs checks that Elect on labels allocates
// nothing per node: every output is a slice of the advice's path
// table, built by the first election, so from one grid to a four times
// larger one a RunBSP election's allocation count does not grow.
// AllocsPerRun measures on one P, so the sweep runs inline with one
// pooled depth-1 encoding writer; the collector is off so that the
// pool keeps it from one run to the next.
func TestElectLabelSweepAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(g *graph.Graph) float64 {
		tab := view.NewTable()
		a, err := advice.NewOracle(tab).ComputeAdvice(g)
		if err != nil {
			t.Fatal(err)
		}
		f := NewElectFactoryDecoded(tab, a)
		run := func() *sim.Result {
			res, err := sim.RunBSP(tab, g, f, sim.DefaultMaxRounds(g), 0)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		res := run()
		if res.ClassViews != 0 || res.Time != a.Phi {
			t.Fatalf("RunBSP interned %d class views in %d rounds; want labels in φ = %d", res.ClassViews, res.Time, a.Phi)
		}
		if _, err := sim.Verify(g, res.Outputs); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { run() })
	}
	small, large := graph.Grid(20, 21), graph.Grid(40, 41)
	as, al := allocs(small), allocs(large)
	t.Logf("%v allocations on %d nodes, %v on %d", as, small.N(), al, large.N())
	if al > as {
		t.Fatalf("Elect on labels allocates %v times on %d nodes and %v on %d, want no more on the larger grid",
			as, small.N(), al, large.N())
	}
}
