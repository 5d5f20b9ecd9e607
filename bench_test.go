package election

// One benchmark per experiment row of DESIGN.md's per-experiment index
// (E1-E26). Each bench reports, beyond ns/op, the paper-relevant custom
// metrics (advice bits, rounds, ratios) via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the quantitative skeleton of
// that index.

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/view"
)

// E1 — election index computation (Prop. 2.1).
func BenchmarkElectionIndex(b *testing.B) {
	for _, n := range []int{20, 50, 100, 200} {
		g := RandomConnected(n, n/2, int64(n))
		b.Run(fmt.Sprintf("random-n%d", n), func(b *testing.B) {
			phi := 0
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				phi, _ = s.ElectionIndex(g)
			}
			b.ReportMetric(float64(phi), "phi")
		})
	}
}

// E2 — Hendrickx bound phi in O(D log(n/D)) (Prop. 2.2).
func BenchmarkHendrickxBound(b *testing.B) {
	worst := 0.0
	for _, n := range []int{20, 40, 80} {
		for seed := int64(0); seed < 4; seed++ {
			g := RandomConnected(n, n/3, seed)
			s := NewSystem()
			phi, ok := s.ElectionIndex(g)
			if !ok {
				continue
			}
			d := float64(g.Diameter())
			bound := d*math.Log2(float64(n)/d) + 1
			if r := float64(phi) / bound; r > worst {
				worst = r
			}
		}
	}
	for i := 0; i < b.N; i++ {
		s := NewSystem()
		s.ElectionIndex(RandomConnected(60, 20, 1))
	}
	b.ReportMetric(worst, "phi/bound-max")
}

// E3 — oracle advice computation (Thm. 3.1 part 1).
func BenchmarkComputeAdvice(b *testing.B) {
	for _, n := range []int{20, 50, 100, 200} {
		g := RandomConnected(n, n/2, int64(n))
		b.Run(fmt.Sprintf("random-n%d", n), func(b *testing.B) {
			var bitsLen int
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				_, enc, err := s.ComputeAdvice(g)
				if err != nil {
					b.Fatal(err)
				}
				bitsLen = enc.Len()
			}
			b.ReportMetric(float64(bitsLen), "advice-bits")
			b.ReportMetric(float64(bitsLen)/(float64(n)*math.Log2(float64(n))), "bits/nlogn")
		})
	}
}

// E3 — full minimum-time election (Thm. 3.1 part 2).
func BenchmarkElectMinTime(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"lollipop", Lollipop(6, 6)},
		{"random50", RandomConnected(50, 25, 3)},
		{"necklace", BuildNecklace(4, 3, 3, NecklaceCode(4, 3, 0)).G},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var time int
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				res, err := s.RunMinTime(tc.g, Options{})
				if err != nil {
					b.Fatal(err)
				}
				time = res.Time
			}
			b.ReportMetric(float64(time), "rounds")
		})
	}
}

// E4 — family G_k construction and index check (Thm. 3.2, Fig. 1).
func BenchmarkFamilyGk(b *testing.B) {
	for _, k := range []int{5, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := BuildHk(k, 3)
				s := NewSystem()
				if phi, ok := s.ElectionIndex(m.G); !ok || phi != 1 {
					b.Fatal("Gk index wrong")
				}
			}
			b.ReportMetric(GkEntropyBits(k), "entropy-bits")
		})
	}
}

// E5 — k-necklace construction and index check (Thm. 3.3, Fig. 2).
func BenchmarkFamilyNecklace(b *testing.B) {
	for _, phi := range []int{2, 4} {
		b.Run(fmt.Sprintf("phi%d", phi), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nk := BuildNecklace(4, 3, phi, NecklaceCode(4, 3, 1))
				s := NewSystem()
				if got, ok := s.ElectionIndex(nk.G); !ok || got != phi {
					b.Fatal("necklace index wrong")
				}
			}
			b.ReportMetric(NecklaceEntropyBits(4, 3), "entropy-bits")
		})
	}
}

// E6 — the four large-time milestones (Thm. 4.1).
func BenchmarkElectionLargeTime(b *testing.B) {
	g := Lollipop(3, 12)
	for i := 1; i <= 4; i++ {
		b.Run(fmt.Sprintf("milestone%d", i), func(b *testing.B) {
			var adviceBits, rounds int
			for it := 0; it < b.N; it++ {
				s := NewSystem()
				res, err := s.RunMilestone(g, i, Options{})
				if err != nil {
					b.Fatal(err)
				}
				adviceBits, rounds = res.AdviceBits, res.Time
			}
			b.ReportMetric(float64(adviceBits), "advice-bits")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// E7 — Generic(x) (Lemma 4.1).
func BenchmarkGeneric(b *testing.B) {
	g := Grid(5, 4)
	s0 := NewSystem()
	phi, _ := s0.ElectionIndex(g)
	for _, dx := range []int{0, 4} {
		b.Run(fmt.Sprintf("x=phi+%d", dx), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				res, err := s.RunGeneric(g, phi+dx, Options{})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Time
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(g.Diameter()+phi+dx+1), "bound")
		})
	}
}

// E8 — S0 family construction (Thm. 4.2, Fig. 5).
func BenchmarkFamilyS0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := BuildS0Member(1, 2, i%2)
		s := NewSystem()
		if phi, ok := s.ElectionIndex(m.G); !ok || phi != 1 {
			b.Fatal("S0 index wrong")
		}
	}
}

// E9 — pruned views and merge (Claim 4.2, Figs. 6-8).
func BenchmarkPrunedView(b *testing.B) {
	g, l := ZLockGraph(6)
	ports := []int{}
	for p := 2; p < g.Deg(l.Central); p++ {
		ports = append(ports, p)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := SubstitutePrunedView(g, l.Central, ports, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	h1 := BuildS0Member(1, 2, 0).Locked()
	h2 := BuildS0Member(1, 2, 1).Locked()
	x := max(h1.G.MaxDegree(), h2.G.MaxDegree())
	var n int
	for i := 0; i < b.N; i++ {
		q := Merge(h1, h2, MergeParams{Ell: 2, X: x, ChainLen: 4})
		n = q.G.N()
	}
	b.ReportMetric(float64(n), "merged-nodes")
}

// E10 — hairy rings (Prop. 4.1, Fig. 9).
func BenchmarkHairyRing(b *testing.B) {
	h1 := BuildHairyRing([]int{2, 0, 3, 1})
	h2 := BuildHairyRing([]int{1, 4, 0, 2})
	var n int
	for i := 0; i < b.N; i++ {
		cg := BuildComposed([]Cut{h1.CutAt(0), h2.CutAt(0)}, 6, 7)
		n = cg.H.G.N()
	}
	b.ReportMetric(float64(n), "composed-nodes")
}

// E11 — election in D+phi given (D, phi).
func BenchmarkElectionDPlusPhi(b *testing.B) {
	g := Grid(4, 3)
	var rounds, adviceBits int
	for i := 0; i < b.N; i++ {
		s := NewSystem()
		res, err := s.RunDPlusPhi(g, Options{})
		if err != nil {
			b.Fatal(err)
		}
		rounds, adviceBits = res.Time, res.AdviceBits
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(adviceBits), "advice-bits")
}

// E12 — simulator engines (LOCAL model).
func BenchmarkSimulator(b *testing.B) {
	g := RandomConnected(40, 20, 9)
	for _, mode := range []struct {
		name string
		o    Options
	}{
		{"bsp", Options{}},
		{"goroutines", Options{Realization: Goroutines{}}},
		{"wire", Options{Realization: Goroutines{Wire: true}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				if _, err := s.RunMinTime(g, mode.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E13 — ablation: the trie-based oracle of Theorem 3.1 vs the naive
// explicit-view oracle that Section 3's introduction rejects.
func BenchmarkAdviceVsNaive(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"dense-phi1", RandomConnected(30, 60, 4)},
		{"lollipop-phi4", Lollipop(8, 10)},
	} {
		b.Run(tc.name+"/trie", func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				_, enc, err := s.ComputeAdvice(tc.g)
				if err != nil {
					b.Fatal(err)
				}
				n = enc.Len()
			}
			b.ReportMetric(float64(n), "advice-bits")
		})
		b.Run(tc.name+"/naive", func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				enc, err := s.ComputeNaiveAdvice(tc.g, 0)
				if err != nil {
					b.Fatal(err)
				}
				n = enc.Len()
			}
			b.ReportMetric(float64(n), "advice-bits")
		})
	}
}

// E14 — the asynchronous engine with the time-stamp synchronizer.
func BenchmarkAsyncEngine(b *testing.B) {
	g := RandomConnected(30, 15, 9)
	for i := 0; i < b.N; i++ {
		s := NewSystem()
		if _, err := s.RunMinTime(g, Options{Realization: Async{Seed: int64(i)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// E15 — advice-free tree election in time <= D.
func BenchmarkTreeElect(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"path20", Path(20)},
		{"broom", Broom(4, 10)},
		{"caterpillar", Caterpillar([]int{3, 0, 2, 1, 4, 0, 1})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				res, err := s.RunTreeElect(tc.g, Options{})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Time
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(tc.g.Diameter()), "diameter")
		})
	}
}

// E16 — message complexity of minimum-time election: 2·m·φ messages.
func BenchmarkMessageComplexity(b *testing.B) {
	g := RandomConnected(40, 20, 6)
	var msgs int
	for i := 0; i < b.N; i++ {
		s := NewSystem()
		res, err := s.RunMinTime(g, Options{})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Messages
	}
	b.ReportMetric(float64(msgs), "messages")
}

// E17 — the Yamashita–Kameda quotient (minimum base).
func BenchmarkQuotient(b *testing.B) {
	g := Torus(4, 5)
	var classes int
	for i := 0; i < b.N; i++ {
		s := NewSystem()
		c, _ := s.StablePartition(g)
		m := map[int]bool{}
		for _, x := range c {
			m[x] = true
		}
		classes = len(m)
	}
	b.ReportMetric(float64(classes), "classes")
}

// E1 (ablation) — the legacy interned-view engine on the same graphs as
// BenchmarkElectionIndex, so the part-vs-view gap stays machine-readable
// in the bench trajectory.
func BenchmarkElectionIndexViewEngine(b *testing.B) {
	for _, n := range []int{50, 200} {
		g := RandomConnected(n, n/2, int64(n))
		b.Run(fmt.Sprintf("random-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				view.ElectionIndex(view.NewTable(), g)
			}
		})
	}
}

// E20 — view-free partition refinement at scale (DESIGN.md §4): the
// election index and the stable partition on graphs two orders of
// magnitude beyond what the view path can touch. Ports of the regular
// families are shuffled so refinement does real splitting work instead
// of collapsing to a symmetric one-class partition in one step.
func BenchmarkPartitionScale(b *testing.B) {
	for _, tc := range []struct {
		name string
		make func() *Graph
	}{
		{"random-n10000", func() *Graph { return RandomConnected(10_000, 5_000, 1) }},
		{"random-n100000", func() *Graph { return RandomConnected(100_000, 50_000, 1) }},
		{"torus-100x100", func() *Graph { return ShufflePorts(Torus(100, 100), 1) }},
		{"torus-320x320", func() *Graph { return ShufflePorts(Torus(320, 320), 1) }},
		{"hypercube-d13", func() *Graph { return ShufflePorts(Hypercube(13), 1) }},
		{"hypercube-d17", func() *Graph { return ShufflePorts(Hypercube(17), 1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.make()
			b.ResetTimer()
			var phi, depth, classes int
			var feasible bool
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				phi, feasible = s.ElectionIndex(g)
				var cls []int
				cls, depth = s.StablePartition(g)
				classes = 0
				for _, c := range cls {
					if c+1 > classes {
						classes = c + 1
					}
				}
			}
			b.ReportMetric(float64(phi), "phi")
			if feasible {
				b.ReportMetric(1, "feasible")
			} else {
				b.ReportMetric(0, "feasible")
			}
			b.ReportMetric(float64(depth), "stable-depth")
			b.ReportMetric(float64(classes), "classes")
		})
	}
}

// E21 — end-to-end minimum-time election at scale (DESIGN.md §5): the
// full Theorem 3.1 pipeline (ComputeAdvice → RunMinTime, which runs
// Algorithm Elect on labels on the BSP engine and verifies the outcome)
// on the same graph families as E20, two orders of magnitude beyond
// what the per-node engines could carry. Beyond ns/op it reports the
// election rounds and the advice length; the election interns no view.
func BenchmarkElectionEndToEndScale(b *testing.B) {
	for _, tc := range []struct {
		name string
		make func() *Graph
	}{
		{"random-n10000", func() *Graph { return RandomConnected(10_000, 5_000, 1) }},
		{"random-n100000", func() *Graph { return RandomConnected(100_000, 50_000, 1) }},
		{"torus-100x100", func() *Graph { return ShufflePorts(Torus(100, 100), 1) }},
		{"torus-320x320", func() *Graph { return ShufflePorts(Torus(320, 320), 1) }},
		{"hypercube-d13", func() *Graph { return ShufflePorts(Hypercube(13), 1) }},
		{"hypercube-d17", func() *Graph { return ShufflePorts(Hypercube(17), 1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.make()
			b.ResetTimer()
			var res *Result
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				var err error
				res, err = s.RunMinTime(g, Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Time), "rounds")
			b.ReportMetric(float64(res.AdviceBits), "advice-bits")
		})
	}
}

// E21 (ablation) — the same end-to-end pipeline on the sequential
// per-node engine at the largest size it comfortably carries, so the
// BSP-vs-sequential gap stays machine-readable in the trajectory.
func BenchmarkElectionEndToEndSequential(b *testing.B) {
	g := RandomConnected(10_000, 5_000, 1)
	b.Run("random-n10000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewSystem()
			if _, err := s.RunMinTime(g, Options{Realization: sequential{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E22 — the oracle at scale (DESIGN.md §6): ComputeAdvice alone (the
// advice phase of Theorem 3.1) on the E20/E21 graph families. The
// oracle computes on the class quotient — sibling ranks, tries over
// class rows and per-depth label sweeps, two depths alive at a time —
// and interns no view; it batches each depth's trie construction and
// label sweep over a worker pool. This row tracks the advice phase in
// isolation so oracle regressions are not masked by the simulation
// phase of E21.
func BenchmarkOracleScale(b *testing.B) {
	for _, tc := range []struct {
		name string
		make func() *Graph
	}{
		{"random-n10000", func() *Graph { return RandomConnected(10_000, 5_000, 1) }},
		{"random-n100000", func() *Graph { return RandomConnected(100_000, 50_000, 1) }},
		{"torus-100x100", func() *Graph { return ShufflePorts(Torus(100, 100), 1) }},
		{"torus-320x320", func() *Graph { return ShufflePorts(Torus(320, 320), 1) }},
		{"hypercube-d13", func() *Graph { return ShufflePorts(Hypercube(13), 1) }},
		{"hypercube-d17", func() *Graph { return ShufflePorts(Hypercube(17), 1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.make()
			b.ResetTimer()
			var a *Advice
			var bitsLen int
			for i := 0; i < b.N; i++ {
				s := NewSystem()
				var enc Bits
				var err error
				a, enc, err = s.ComputeAdvice(g)
				if err != nil {
					b.Fatal(err)
				}
				bitsLen = enc.Len()
			}
			b.ReportMetric(float64(a.Phi), "phi")
			b.ReportMetric(float64(bitsLen), "advice-bits")
		})
	}
}

// E23 — the asynchronous engine at scale (DESIGN.md §7): the full
// min-time pipeline, its election replayed on the event-driven schedule
// under every delay model, on the E20/E21 graph families at 10k and
// 100k nodes.
// Each subbenchmark also checks the engine contract — Outputs, Rounds
// and Time identical to the BSP reference computed once per graph —
// so every bench run doubles as the at-scale conformance pass. Beyond
// ns/op it reports the logical rounds, the virtual completion time,
// the maximum round skew the model induced, and delivered messages.
func BenchmarkAsyncScale(b *testing.B) {
	for _, tc := range []struct {
		name string
		make func() *Graph
	}{
		{"random-n10000", func() *Graph { return RandomConnected(10_000, 5_000, 1) }},
		{"random-n100000", func() *Graph { return RandomConnected(100_000, 50_000, 1) }},
		{"torus-100x100", func() *Graph { return ShufflePorts(Torus(100, 100), 1) }},
		{"torus-320x320", func() *Graph { return ShufflePorts(Torus(320, 320), 1) }},
		{"hypercube-d13", func() *Graph { return ShufflePorts(Hypercube(13), 1) }},
		{"hypercube-d17", func() *Graph { return ShufflePorts(Hypercube(17), 1) }},
	} {
		// Graph construction and the BSP reference run are deferred to
		// the first *selected* subbenchmark, so a bench filter (the CI
		// smoke runs only two 10k rows) never pays for the 100k graphs
		// it skips; the names stay flat to match the recorded BENCH
		// trajectories.
		var g *Graph
		var s *System
		var ref *Result
		setup := func(b *testing.B) {
			if g != nil {
				return
			}
			g = tc.make()
			s = NewSystem()
			var err error
			ref, err = s.RunMinTime(g, Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, mname := range []string{"uniform", "exp", "pareto", "fixed", "fifo", "slowcut"} {
			b.Run(tc.name+"-"+mname, func(b *testing.B) {
				setup(b)
				model := DelayModels(g)[mname]
				var res *Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					res, err = s.RunMinTime(g, Options{Realization: Async{Seed: 1, Delay: model}})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				requireSameElection(b, tc.name+"/"+mname, ref, res)
				b.ReportMetric(float64(res.Time), "rounds")
				b.ReportMetric(res.VirtualTime, "virtual-time")
				b.ReportMetric(float64(res.MaxSkew), "max-skew")
				b.ReportMetric(float64(res.Messages), "messages")
			})
		}
	}
}

// E19 — raw view-interning throughput (DESIGN.md §1): a fresh table
// interning a 200-node graph's levels, and GOMAXPROCS goroutines
// hammering one shared table with the same views, which exercises the
// sharded dedupe path the goroutine-per-node simulator depends on.
func BenchmarkViewIntern(b *testing.B) {
	g := graph.RandomConnected(200, 100, 5)
	b.Run("fresh-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			view.Levels(view.NewTable(), g, 4)
		}
	})
	b.Run("shared-table-parallel", func(b *testing.B) {
		tab := view.NewTable()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				view.Levels(tab, g, 4)
			}
		})
	})
}

// E25 — the crash-tolerant sharded BSP engine (DESIGN.md §9): the same
// end-to-end minimum-time election as E21 at 10k and 100k nodes, run
// single-process, sharded over 4 shards on a clean transport, and
// sharded with one injected crash per shard. Beyond ns/op it reports
// the rounds (bit-identical across all three by the differential
// suite), the transport-level resends, and — for the crash variant —
// the crash count and mean recovery (replay) time per crash in
// milliseconds, the cost the checkpoint/replay protocol puts on a
// shard death.
func BenchmarkShardedBSP(b *testing.B) {
	for _, size := range []struct {
		name string
		make func() *Graph
	}{
		{"random-n10000", func() *Graph { return RandomConnected(10_000, 5_000, 1) }},
		{"random-n100000", func() *Graph { return RandomConnected(100_000, 50_000, 1) }},
	} {
		// The graph and its advice are built inside the size's row, so a
		// -bench pattern that skips a size skips its set-up too.
		b.Run(size.name, func(b *testing.B) {
			g := size.make()
			s := NewSystem()
			_, enc, err := s.ComputeAdvice(g)
			if err != nil {
				b.Fatal(err)
			}
			const shards = 4
			for _, tc := range []struct {
				name   string
				faults func() *FaultInjector // nil = clean transport
			}{
				{"bsp", nil},
				{"shards4", nil},
				{"shards4-crash", func() *FaultInjector {
					inj := NewFaultInjector(1)
					for sh := 0; sh < shards; sh++ {
						inj.ArmAfter(ShardCrashCat(sh), 3+5*sh, 1)
					}
					return inj
				}},
			} {
				b.Run(tc.name, func(b *testing.B) {
					var res *Result
					for i := 0; i < b.N; i++ {
						o := Options{}
						if tc.name != "bsp" {
							sh := Sharded{Shards: shards}
							if tc.faults != nil {
								sh.Faults = tc.faults() // fresh budgets per run
							}
							o.Realization = sh
						}
						var err error
						res, err = s.RunElect(g, enc, o)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(res.Time), "rounds")
					if st := res.ShardStats; st != nil {
						b.ReportMetric(float64(st.Retries), "resends")
						if tc.faults != nil {
							b.ReportMetric(float64(st.Crashes), "crashes")
							b.ReportMetric(float64(st.MeanRecovery())/1e6, "recovery-ms/crash")
						}
					}
				})
			}
		})
	}
}

// heapWatermark samples the heap in the background and returns a stop
// function yielding the peak HeapAlloc in MB seen while it ran. The
// watermark is process-wide, so callers should runtime.GC() first to
// drop garbage from earlier subtests out of the baseline.
func heapWatermark() func() float64 {
	var peak uint64
	done := make(chan struct{})
	finished := make(chan struct{})
	sample := func(ms *runtime.MemStats) {
		runtime.ReadMemStats(ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	go func() {
		defer close(finished)
		var ms runtime.MemStats
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				sample(&ms)
				return
			case <-tick.C:
				sample(&ms)
			}
		}
	}()
	return func() float64 {
		close(done)
		<-finished
		return float64(peak) / (1 << 20)
	}
}

// E26 — frontier-parallel refinement at scale (DESIGN.md §10): the
// election-index loop at n up to 10M on stream-constructed graphs, with
// the full-sweep Refiner as ablation at the sizes where it is still
// affordable and a worker sweep showing the numbering invariance holds
// at every pool size. Reports the stabilization depth reached (phi on
// feasible graphs) and the peak heap watermark of the run, graph
// included — the number the acceptance memory budget tracks.
func BenchmarkFrontierRefinement(b *testing.B) {
	families := []struct {
		name  string
		build func(n int) *graph.Graph
	}{
		// Small-diameter: the frontier collapses after a handful of
		// depths, so the win is the parallel counting split itself.
		{"random", func(n int) *graph.Graph { return graph.RandomConnected(n, n/2, 1) }},
		// Large-diameter: phi grows like the diameter and the frontier
		// is a thin wave, the regime the worklist discipline targets.
		{"sqgrid", func(n int) *graph.Graph {
			w := int(math.Sqrt(float64(n)))
			return graph.Grid(w, (n+w-1)/w)
		}},
	}
	runIndex := func(b *testing.B, g *graph.Graph, newEngine func() part.Engine) {
		runtime.GC()
		stop := heapWatermark()
		depth := 0
		for i := 0; i < b.N; i++ {
			r := newEngine()
			count := r.NumClasses()
			for {
				r.Step()
				if r.NumClasses() == g.N() || r.NumClasses() == count {
					break
				}
				count = r.NumClasses()
			}
			depth = r.Depth()
		}
		b.ReportMetric(float64(depth), "phi")
		b.ReportMetric(stop(), "peak-heap-MB")
	}
	for _, f := range families {
		for _, n := range []int{100_000, 1_000_000, 10_000_000} {
			if n == 10_000_000 && testing.Short() {
				continue
			}
			b.Run(fmt.Sprintf("%s-n%d", f.name, n), func(b *testing.B) {
				g := f.build(n)
				b.Run("frontier", func(b *testing.B) {
					runIndex(b, g, func() part.Engine { return part.NewFrontierRefiner(g, 0) })
				})
				// Full-sweep ablation: the pre-frontier engine resorts
				// every class at every depth. Affordable through 1M.
				if n <= 1_000_000 {
					b.Run("fullsweep", func(b *testing.B) {
						runIndex(b, g, func() part.Engine { return part.NewRefiner(g) })
					})
				}
				if n == 100_000 {
					for _, w := range []int{1, 4} {
						b.Run(fmt.Sprintf("frontier-w%d", w), func(b *testing.B) {
							runIndex(b, g, func() part.Engine { return part.NewFrontierRefiner(g, w) })
						})
					}
				}
			})
		}
	}
}

// E27 — the sharded engine over a real wire (DESIGN.md §12): the same
// elections as E25 with the boundary protocol on real loopback-TCP
// connections (NetGroup) against the in-process channel transport, and
// the full multi-process deployment — shardd worker processes, socket
// control plane, disk journals — with one worker SIGKILLed mid-run.
// Every row runs Elect on labels, so one int32 per boundary node and
// round crosses the wire, between goroutines or between processes.
// Beyond ns/op it reports rounds (bit-identical everywhere by the
// differential suite), transport resends, and for the kill variant the
// crash count and the mean recovery (restart + journal replay) time per
// kill in milliseconds — the cost of a process death on a live wire.
func BenchmarkShardedWire(b *testing.B) {
	const shards = 4
	for _, size := range []struct {
		name string
		make func() *Graph
	}{
		{"random-n10000", func() *Graph { return RandomConnected(10_000, 5_000, 1) }},
		{"random-n100000", func() *Graph { return RandomConnected(100_000, 50_000, 1) }},
	} {
		g := size.make()
		s := NewSystem()
		_, enc, err := s.ComputeAdvice(g)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, mkTransport func(b *testing.B) shard.Transport) {
			var res *sim.Result
			var stats *shard.Stats
			for i := 0; i < b.N; i++ {
				tab := view.NewTable()
				factory, err := algorithms.NewElectFactory(tab, enc)
				if err != nil {
					b.Fatal(err)
				}
				// n=100k boundary exchanges carry tens of thousands of
				// labels per leg. Pace the resend ramp for big frames
				// (the 200µs default floor is tuned for small in-process
				// exchanges) and give the exchange headroom over the 10s
				// default before calling a shard stuck — all variants
				// share these knobs so the rows stay comparable.
				opt := shard.Options{Shards: shards, MaxRounds: sim.DefaultMaxRounds(g),
					RetryBase: 5 * time.Millisecond, RetryMax: time.Second, RoundTimeout: 5 * time.Minute}
				if mkTransport != nil {
					opt.Transport = mkTransport(b)
				}
				res, stats, err = shard.Run(tab, g, factory, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sim.Verify(g, res.Outputs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Time), "rounds")
			b.ReportMetric(float64(stats.Retries), "resends")
		}
		b.Run(size.name+"/inprocess", func(b *testing.B) { run(b, nil) })
		b.Run(size.name+"/loopback-tcp", func(b *testing.B) {
			run(b, func(b *testing.B) shard.Transport {
				grp, err := shard.NewNetGroup("tcp", b.TempDir(), shards, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { grp.Close() })
				return grp
			})
		})
		if size.name != "random-n100000" {
			continue
		}
		b.Run(size.name+"/procs-tcp-kill", func(b *testing.B) {
			var stats *shard.Stats
			for i := 0; i < b.N; i++ {
				h := newProcHarness(b, g, enc, shards, "tcp", "", 0)
				h.roundTimeout = 5 * time.Minute
				killed, stopPoll := h.killAfterCheckpoint(1, 2)
				res, st, err := h.run()
				stopPoll()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Verify(g, res.Outputs); err != nil {
					b.Fatal(err)
				}
				select {
				case <-killed:
				default:
					b.Fatal("run finished before the kill landed")
				}
				stats = st
			}
			b.ReportMetric(float64(stats.Crashes), "crashes")
			if stats.Recoveries > 0 {
				b.ReportMetric(float64(stats.MeanRecovery())/1e6, "recovery-ms/kill")
			}
			b.ReportMetric(float64(stats.Retries), "resends")
		})
	}
}
