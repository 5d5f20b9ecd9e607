//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package algorithms

import (
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
