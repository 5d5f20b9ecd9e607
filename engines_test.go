package election

// Property test for the engine-equivalence contract (DESIGN.md §5): the
// class-sharing bulk-synchronous engine, the sequential reference and
// the goroutine-per-node engine must be observationally identical —
// same Outputs, Rounds, Time and Messages — on every graph family in
// the repository plus a seeded random sweep. CI runs this under -race,
// which also exercises the BSP worker pool and the shared labeler.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/view"
)

// equivalenceFamilies enumerates one representative of every graph
// family in the repository: the paper's lower-bound constructions
// (internal/families) and every generator the root package exports.
func equivalenceFamilies() map[string]*Graph {
	zg, _ := ZLockGraph(5)
	h1 := BuildHairyRing([]int{2, 0, 3, 1})
	h2 := BuildHairyRing([]int{1, 4, 0, 2})
	s0a := BuildS0Member(1, 2, 0).Locked()
	s0b := BuildS0Member(1, 2, 1).Locked()
	x := max(s0a.G.MaxDegree(), s0b.G.MaxDegree())
	return map[string]*Graph{
		// internal/families constructions.
		"hk":        BuildHk(5, 3).G,
		"gk-member": BuildGkMember(5, 3, []int{0, 2, 1, 4, 3}).G,
		"necklace":  BuildNecklace(4, 3, 3, NecklaceCode(4, 3, 1)).G,
		"fx":        FXGraph(3, 1),
		"s0":        BuildS0Member(1, 2, 0).G,
		"zlock":     zg,
		"merge":     Merge(s0a, s0b, MergeParams{Ell: 2, X: x, ChainLen: 4}).G,
		"hairy":     h1.G,
		"composed":  BuildComposed([]Cut{h1.CutAt(0), h2.CutAt(0)}, 6, 7).H.G,
		// Generator families.
		"ring":        Ring(6),
		"path":        Path(7),
		"clique":      Clique(5),
		"star":        Star(6),
		"k-bipartite": CompleteBipartite(3, 4),
		"grid":        Grid(4, 3),
		"hypercube":   Hypercube(3),
		"torus":       Torus(3, 4),
		"lollipop":    Lollipop(4, 3),
		"binary-tree": BinaryTree(4),
		"caterpillar": Caterpillar([]int{2, 0, 1, 3}),
		"wheel":       Wheel(6),
		"wheel-tail":  WheelWithTail(6, 3),
		"broom":       Broom(3, 4),
	}
}

// sequential is the per-node deterministic loop (sim.RunSequential) as a
// test-only Realization: the reference the production realizations are
// pinned against through the same RunElect/RunMinTime entry points.
type sequential struct{}

func (sequential) realize(_ context.Context, tab *view.Table, g *Graph, f sim.Factory, maxRounds int, _ *Result) (*sim.Result, error) {
	return sim.RunSequential(tab, g, f, maxRounds)
}

// engineOptions are the three synchronous realizations under test.
func engineOptions() map[string]Options {
	return map[string]Options{
		"bsp":        {Realization: BSP{}},
		"sequential": {Realization: sequential{}},
		"concurrent": {Realization: Goroutines{}},
	}
}

// TestRoundBudgetTyped: exceeding MaxRounds is the same typed failure
// whichever realization runs, so a caller's errors.As does not depend
// on the realization it picked.
func TestRoundBudgetTyped(t *testing.T) {
	g := Lollipop(4, 3)
	s := NewSystem()
	for name, r := range map[string]Realization{
		"bsp":        BSP{},
		"sequential": sequential{},
		"goroutines": Goroutines{},
		"wire":       Goroutines{Wire: true},
		"async":      Async{Seed: 1},
		"sharded":    Sharded{Shards: 2},
	} {
		_, err := s.RunGeneric(g, 3, Options{MaxRounds: 1, Realization: r})
		var se *StuckError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want a *StuckError", name, err)
			continue
		}
		if se.MaxRounds != 1 || se.Undecided == 0 {
			t.Errorf("%s: StuckError = %+v", name, se)
		}
	}
	if _, err := s.RunGeneric(g, 3, Options{Realization: Sharded{Shards: 1}}); err == nil {
		t.Error("Sharded{Shards: 1} ran; want an error")
	}
}

// requireSameElection asserts the engine-conformance contract between
// an election result and its reference: same Leader, Time, per-node
// Rounds and per-node Outputs. Messages is deliberately excluded — on
// the asynchronous engine it counts delivered messages, a property of
// the schedule, not of the algorithm. Shared by the differential
// suite, the fuzz targets and the at-scale benchmarks so the contract
// lives in one place.
func requireSameElection(tb testing.TB, label string, ref, res *Result) {
	tb.Helper()
	if res.Time != ref.Time || res.Leader != ref.Leader {
		tb.Errorf("%s: (time=%d leader=%d) != reference (time=%d leader=%d)",
			label, res.Time, res.Leader, ref.Time, ref.Leader)
	}
	if !reflect.DeepEqual(res.Rounds, ref.Rounds) {
		tb.Errorf("%s: per-node rounds differ from the reference", label)
	}
	if !reflect.DeepEqual(res.Outputs, ref.Outputs) {
		tb.Errorf("%s: per-node outputs differ from the reference", label)
	}
}

func checkResultsAgree(t *testing.T, label string, results map[string]*Result) {
	t.Helper()
	ref := results["sequential"]
	for engine, res := range results {
		if res.Time != ref.Time || res.Messages != ref.Messages || res.Leader != ref.Leader {
			t.Errorf("%s: %s (time=%d messages=%d leader=%d) != sequential (time=%d messages=%d leader=%d)",
				label, engine, res.Time, res.Messages, res.Leader, ref.Time, ref.Messages, ref.Leader)
		}
		if !reflect.DeepEqual(res.Rounds, ref.Rounds) {
			t.Errorf("%s: %s per-node rounds differ from sequential", label, engine)
		}
		if !reflect.DeepEqual(res.Outputs, ref.Outputs) {
			t.Errorf("%s: %s per-node outputs differ from sequential", label, engine)
		}
	}
}

// TestEngineEquivalenceOnFamilies runs the full minimum-time pipeline on
// every feasible family member with all three engines; infeasible
// members (ring, hypercube, torus, ...) are covered by the synthetic
// sweep below, since they reject election before any engine runs.
func TestEngineEquivalenceOnFamilies(t *testing.T) {
	for name, g := range equivalenceFamilies() {
		s := NewSystem()
		if !s.Feasible(g) {
			continue
		}
		_, enc, err := s.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results := make(map[string]*Result)
		for engine, o := range engineOptions() {
			res, err := s.RunElect(g, enc, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, engine, err)
			}
			results[engine] = res
		}
		checkResultsAgree(t, name, results)
	}
}

// degStop is a synthetic decider: a node stops at a round depending on
// its degree, exercising decided-but-participating semantics without
// needing feasibility.
type degStop struct{ round int }

func (d *degStop) Decide(r int, b *view.View) ([]int, bool) {
	if r >= d.round {
		return []int{}, true
	}
	return nil, false
}

// TestEngineEquivalenceSynthetic drives all three engines below the
// election layer with the synthetic decider on every family, feasible or
// not (ring, hypercube, torus reject election before any engine runs, so
// this is where their exchange semantics get compared), checking the
// exact per-round message accounting.
func TestEngineEquivalenceSynthetic(t *testing.T) {
	for name, g := range equivalenceFamilies() {
		mk := func() sim.Factory {
			return func(simID, deg int) sim.Decider {
				return &degStop{round: 1 + deg%3}
			}
		}
		ref, err := sim.RunSequential(view.NewTable(), g, mk(), 100)
		if err != nil {
			t.Fatalf("%s/sequential: %v", name, err)
		}
		for engine, run := range map[string]func() (*sim.Result, error){
			"bsp": func() (*sim.Result, error) {
				return sim.RunBSP(view.NewTable(), g, mk(), 100, 0)
			},
			"concurrent": func() (*sim.Result, error) {
				return sim.RunConcurrent(view.NewTable(), g, mk(), 100, false)
			},
		} {
			res, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, engine, err)
			}
			if res.Time != ref.Time || res.Messages != ref.Messages ||
				!reflect.DeepEqual(res.Rounds, ref.Rounds) ||
				!reflect.DeepEqual(res.Outputs, ref.Outputs) {
				t.Errorf("%s: %s disagrees with sequential", name, engine)
			}
		}
	}
}

// TestDifferentialConformance is the cross-engine differential suite of
// the asynchronous engine: on every feasible graph family, the same
// advice-driven election runs on the BSP reference, the sequential
// engine, and the asynchronous engine under every delay model and five
// delay seeds each. Outputs, Rounds and Time must match the BSP
// reference exactly — the α-synchronizer soundness argument of
// DESIGN.md §7 says the delay adversary controls the schedule and
// nothing else. (Messages is deliberately excluded for async: it
// counts delivered messages, which is a property of the schedule.)
func TestDifferentialConformance(t *testing.T) {
	for name, g := range equivalenceFamilies() {
		s := NewSystem()
		if !s.Feasible(g) {
			continue
		}
		_, enc, err := s.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := s.RunElect(g, enc, Options{}) // BSP
		if err != nil {
			t.Fatalf("%s/bsp: %v", name, err)
		}
		seqRes, err := s.RunElect(g, enc, Options{Realization: sequential{}})
		if err != nil {
			t.Fatalf("%s/seq: %v", name, err)
		}
		requireSameElection(t, name+"/seq", ref, seqRes)
		for mname, model := range DelayModels(g) {
			for seed := int64(0); seed < 5; seed++ {
				res, err := s.RunElect(g, enc, Options{Realization: Async{Seed: seed, Delay: model}})
				if err != nil {
					t.Fatalf("%s/async-%s seed %d: %v", name, mname, seed, err)
				}
				requireSameElection(t, fmt.Sprintf("%s/async-%s-s%d", name, mname, seed), ref, res)
			}
		}
	}
}

// TestAsyncConformanceModerateScale drives the class-sharing async
// engine against BSP at a size where the calendar queue, the level
// window and the recycling paths do real work: a 4k random graph and a
// shuffled hypercube, under a uniform, a heavy-tailed and a slow-cut
// schedule. (The 10k/100k sizes of the acceptance run live in E23,
// BenchmarkAsyncScale, which performs the same comparison.)
func TestAsyncConformanceModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale conformance skipped in -short")
	}
	for name, g := range map[string]*Graph{
		"random-n4000":  RandomConnected(4000, 2000, 1),
		"hypercube-d11": ShufflePorts(Hypercube(11), 1),
	} {
		s := NewSystem()
		ref, err := s.RunMinTime(g, Options{})
		if err != nil {
			t.Fatalf("%s/bsp: %v", name, err)
		}
		for mname, model := range DelayModels(g) {
			if mname == "exp" || mname == "fixed" {
				continue // keep -race runtime sane; covered at small scale
			}
			res, err := s.RunMinTime(g, Options{Realization: Async{Seed: 2, Delay: model}})
			if err != nil {
				t.Fatalf("%s/async-%s: %v", name, mname, err)
			}
			requireSameElection(t, name+"/async-"+mname, ref, res)
		}
	}
}

// TestEngineEquivalenceRandomSweep is the seeded random sweep: min-time
// election across engines on RandomConnected instances of varied size
// and density.
func TestEngineEquivalenceRandomSweep(t *testing.T) {
	for _, n := range []int{10, 25, 60} {
		for seed := int64(0); seed < 4; seed++ {
			g := RandomConnected(n, n/2+int(seed), seed)
			s := NewSystem()
			if !s.Feasible(g) {
				continue
			}
			_, enc, err := s.ComputeAdvice(g)
			if err != nil {
				t.Fatal(err)
			}
			results := make(map[string]*Result)
			for engine, o := range engineOptions() {
				res, err := s.RunElect(g, enc, o)
				if err != nil {
					t.Fatalf("n=%d seed=%d %s: %v", n, seed, engine, err)
				}
				results[engine] = res
			}
			checkResultsAgree(t, fmt.Sprintf("random-n%d-s%d", n, seed), results)
		}
	}
}
