package main

import (
	"testing"

	election "repro"
)

// given returns the set of flag names a command line spelled.
func given(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, name := range names {
		set[name] = true
	}
	return set
}

// TestRealizationOf pins the flag → Realization mapping: every flag
// combination that names two realizations, or sets a knob the chosen
// one does not read, is an error; every valid one names exactly the
// realization and fields it spells.
func TestRealizationOf(t *testing.T) {
	g := election.Lollipop(5, 3)
	for _, tc := range []struct {
		name string
		f    engineFlags
		want func(election.Realization) bool // nil: the flags must be rejected
	}{
		{"async+shards+chaos", engineFlags{async: true, shards: 3, chaos: 5}, nil},
		{"concurrent+async", engineFlags{concurrent: true, async: true}, nil},
		{"concurrent+shards", engineFlags{concurrent: true, shards: 2}, nil},
		{"async+listen", engineFlags{async: true, listen: "127.0.0.1:0"}, nil},
		{"wire alone", engineFlags{wire: true}, nil},
		{"wire+async", engineFlags{wire: true, async: true}, nil},
		{"chaos alone", engineFlags{chaos: 7}, nil},
		{"listen alone", engineFlags{listen: "127.0.0.1:0"}, nil},
		{"shards 1", engineFlags{shards: 1}, nil},
		{"shards 1+chaos", engineFlags{shards: 1, chaos: 7}, nil},
		{"workers+concurrent", engineFlags{workers: 2, concurrent: true}, nil},
		{"workers+async", engineFlags{workers: 2, async: true}, nil},
		{"workers+shards", engineFlags{workers: 2, shards: 3}, nil},
		{"unknown delay", engineFlags{async: true, delay: "nope"}, nil},
		{"delay alone", engineFlags{delay: "pareto"}, nil},
		{"delay+shards", engineFlags{delay: "slowcut", shards: 2}, nil},
		{"network+peers", engineFlags{given: given("network", "peers")}, nil},
		{"shards+shardd", engineFlags{shards: 2, given: given("shards", "shardd")}, nil},
		{"index+shards", engineFlags{index: true, shards: 3, given: given("shards")}, nil},
		{"index+delay", engineFlags{index: true, given: given("delay")}, nil},

		{"default", engineFlags{}, func(r election.Realization) bool {
			return r == election.BSP{}
		}},
		{"workers", engineFlags{workers: 3}, func(r election.Realization) bool {
			return r == election.BSP{Workers: 3}
		}},
		{"concurrent", engineFlags{concurrent: true}, func(r election.Realization) bool {
			return r == election.Goroutines{}
		}},
		{"concurrent+wire", engineFlags{concurrent: true, wire: true}, func(r election.Realization) bool {
			return r == election.Goroutines{Wire: true}
		}},
		{"async pareto", engineFlags{async: true, delay: "pareto", seed: 9}, func(r election.Realization) bool {
			a, ok := r.(election.Async)
			_, pareto := a.Delay.(*election.ParetoDelay)
			return ok && a.Seed == 9 && pareto
		}},
		{"shards", engineFlags{shards: 3, seed: 4}, func(r election.Realization) bool {
			sh, ok := r.(election.Sharded)
			return ok && sh.Shards == 3 && sh.Seed == 4 && sh.Faults == nil
		}},
		{"shards+chaos", engineFlags{shards: 3, chaos: 7}, func(r election.Realization) bool {
			sh, ok := r.(election.Sharded)
			return ok && sh.Shards == 3 && sh.Faults != nil
		}},
		{"shards+listen", engineFlags{shards: 2, listen: "127.0.0.1:0"}, func(r election.Realization) bool {
			sh, ok := r.(election.Sharded)
			return ok && sh.Shards == 2
		}},
		{"shards+listen+network+peers", engineFlags{shards: 2, listen: "ctl.sock",
			given: given("shards", "listen", "network", "peers")}, func(r election.Realization) bool {
			sh, ok := r.(election.Sharded)
			return ok && sh.Shards == 2
		}},
		{"index", engineFlags{index: true, given: given("graph", "n", "seed")}, func(r election.Realization) bool {
			return r == election.BSP{}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.f.delay == "" {
				tc.f.delay = "uniform"
			}
			r, err := realizationOf(g, tc.f)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("flags %+v accepted as %#v, want an error", tc.f, r)
				}
				return
			}
			if err != nil {
				t.Fatalf("flags %+v rejected: %v", tc.f, err)
			}
			if !tc.want(r) {
				t.Errorf("flags %+v gave %#v", tc.f, r)
			}
		})
	}
}
