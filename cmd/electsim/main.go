// Command electsim generates an anonymous port-labeled network, runs one
// of the paper's leader-election algorithms on the LOCAL-model simulator,
// and reports the elected leader, the time used, and the advice size.
//
// Usage:
//
//	electsim -graph lollipop -n 20 -algo mintime
//	electsim -graph random -n 50 -seed 7 -algo milestone2 -concurrent
//	electsim -graph necklace -n 4 -algo generic -x 5
//	electsim -graph random -n 100000 -algo index
//
// Graphs: lollipop, random, grid, sqgrid, k-bipartite, hk, necklace,
// s0, hairy, torus, hypercube (torus and hypercube are -n-parameterized
// with shuffled ports; sqgrid is the near-square ~n-node grid). The
// random/torus/hypercube/grid/sqgrid families build through the
// streaming map-free constructors, so -n scales to 10M nodes:
//
//	electsim -graph random -n 10000000 -algo index -memstats
//
// -memstats samples runtime.MemStats during the run and reports the
// peak heap alongside the timings.
// Algorithms: mintime (Theorem 3.1), generic (Lemma 4.1, needs -x),
// milestone1..milestone4 (Theorem 4.1), fullmap (Proposition 2.1),
// dplusphi (remark after Theorem 4.1), index (no election run: just φ,
// feasibility and the stable partition — the large-graph path).
//
// The election's rounds run on one realization, chosen by at most one
// of -concurrent, -async and -shards; with none of them, the
// class-sharing bulk-synchronous engine runs (-workers bounds its
// decide sweep's goroutines). A flag that the chosen realization does not read
// (-wire without -concurrent, -delay without -async, -chaos or -listen
// without -shards, -workers off BSP) is an error, not silently ignored.
//
// -concurrent runs one goroutine per node; -wire additionally
// serializes every message to bits and reports the wire volume.
//
// -async replays the bulk-synchronous engine's election on an
// event-driven network bridged by the time-stamp synchronizer, whose
// per-message delays are chosen by the -delay adversary (seeded by
// -seed):
//
//	electsim -graph random -n 100000 -algo mintime -async -delay=pareto
//	electsim -graph hairy -n 64 -algo mintime -async -delay=slowcut
//
// Delay models: uniform (0,1] (default), exp, pareto (heavy tail),
// fixed (frozen per-edge latencies), fifo (per-link in-order
// delivery), slowcut (starves the cut between the first half of the
// node ids and the rest). The elected leader and the logical rounds
// are identical under every model — only the virtual schedule, which
// the run reports, differs.
//
// -shards=N runs the synchronous rounds on the crash-tolerant sharded
// engine (N contiguous node ranges exchanging boundary labels);
// -chaos=<seed> additionally injects a replayable fault schedule —
// drops, dups, reorders, delays and shard crashes — on the boundary
// transport. The election outcome is bit-identical either way; the run
// reports the retry/crash/recovery accounting:
//
//	electsim -graph random -n 100000 -algo mintime -shards=4
//	electsim -graph hairy -n 64 -algo mintime -shards=3 -chaos=7
//
// The -cpuprofile/-memprofile flags cover whichever path runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	election "repro"
)

func main() {
	var (
		graphKind  = flag.String("graph", "lollipop", "graph family: lollipop, random, grid, sqgrid, k-bipartite, hk, necklace, s0, hairy, torus, hypercube")
		load       = flag.String("load", "", "load the graph from a file in the text format instead of generating one")
		save       = flag.String("save", "", "write the generated graph to a file in the text format")
		n          = flag.Int("n", 16, "size parameter of the graph family")
		seed       = flag.Int64("seed", 1, "seed for random graphs and port shuffles")
		algo       = flag.String("algo", "mintime", "mintime, generic, milestone1..4, fullmap, dplusphi, index")
		workers    = flag.Int("workers", 0, "BSP decide-sweep workers (0 = GOMAXPROCS); BSP only")
		x          = flag.Int("x", 0, "parameter x for -algo generic (default: the election index)")
		concurrent = flag.Bool("concurrent", false, "use the goroutine-per-node engine")
		wire       = flag.Bool("wire", false, "serialize messages to bits (with -concurrent)")
		async      = flag.Bool("async", false, "use the asynchronous event-driven engine (time-stamp synchronizer)")
		delay      = flag.String("delay", "uniform", "async delay model: uniform, exp, pareto, fixed, fifo, slowcut")
		shards     = flag.Int("shards", 0, "run the synchronous rounds on the crash-tolerant sharded engine with this many shards (>1)")
		chaos      = flag.Int64("chaos", 0, "with -shards: inject a seeded fault schedule (drops, dups, reorders, delays, crashes) on the boundary transport")
		listen     = flag.String("listen", "", "with -shards: supervise real shardd worker processes over this control address (e.g. 127.0.0.1:0) instead of in-process goroutines; -algo mintime only, since worker processes run Elect on labels")
		peersList  = flag.String("peers", "", "with -listen: explicit comma-separated data-plane addresses, one per shard (default: auto-allocated on loopback)")
		sharddBin  = flag.String("shardd", "", "with -listen: path to the shardd worker binary (default: next to this executable, then $PATH)")
		network    = flag.String("network", "tcp", "with -listen: socket family for control and data planes, tcp or unix")
		timeout    = flag.Duration("timeout", 0, "abort the run after this wall-clock budget (0 = none); engines checkpoint per round")
		memStats   = flag.Bool("memstats", false, "sample runtime.MemStats during the run and report the peak heap")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()
	// Profiles are written by deferred teardown, so the algorithm run is
	// wrapped in run() and the exit code applied after the defers fire.
	code := func() int {
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "electsim:", err)
				return 1
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "electsim:", err)
				return 1
			}
			defer pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			defer func() {
				f, err := os.Create(*memProfile)
				if err != nil {
					fmt.Fprintln(os.Stderr, "electsim:", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "electsim:", err)
				}
			}()
		}
		if *memStats {
			sampler := startHeapSampler()
			defer func() {
				peak := sampler.stop()
				fmt.Printf("peak heap: %.1f MB\n", float64(peak)/(1<<20))
			}()
		}
		given := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
		ef := engineFlags{workers: *workers, concurrent: *concurrent, wire: *wire, async: *async,
			delay: *delay, shards: *shards, seed: *seed, chaos: *chaos, listen: *listen,
			index: *algo == "index", given: given}
		return run(*graphKind, *load, *save, *algo, *peersList, *sharddBin, *network, *n, *x, *seed, ef, *timeout)
	}()
	os.Exit(code)
}

// heapSampler polls runtime.MemStats in the background and remembers the
// maximum live heap it saw — a lower bound on the run's peak footprint
// that needs no instrumentation of the measured code.
type heapSampler struct {
	peak uint64
	done chan struct{}
	out  chan uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{done: make(chan struct{}), out: make(chan uint64, 1)}
	go func() {
		var ms runtime.MemStats
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
				s.out <- s.peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

func (s *heapSampler) stop() uint64 {
	close(s.done)
	return <-s.out
}

// engineFlags are the flags that choose how the election's rounds run.
type engineFlags struct {
	workers                 int
	concurrent, wire, async bool
	delay                   string
	shards                  int
	seed, chaos             int64
	listen                  string
	index                   bool            // -algo index: φ only, no election
	given                   map[string]bool // names of the flags set on the command line
}

// realizationFlags are the flags only an election's realization reads.
var realizationFlags = []string{"workers", "concurrent", "wire", "async", "delay", "shards", "chaos", "listen", "peers", "shardd", "network"}

// realizationOf maps the engine flags to the one election.Realization
// they name. It rejects flags that name two realizations and flags the
// chosen realization would not read. The delay models are built for g.
func realizationOf(g *election.Graph, f engineFlags) (election.Realization, error) {
	if f.index {
		for _, name := range realizationFlags {
			if f.given[name] {
				return nil, fmt.Errorf("-algo index runs no election; it does not read -%s", name)
			}
		}
	}
	for _, name := range []string{"peers", "shardd", "network"} {
		if f.given[name] && f.listen == "" {
			return nil, fmt.Errorf("-%s configures the worker processes of -listen; it needs -listen", name)
		}
	}
	if f.shards != 0 && f.shards < 2 {
		return nil, fmt.Errorf("-shards %d: a sharded run needs at least 2 shards", f.shards)
	}
	var named []string
	if f.concurrent {
		named = append(named, "-concurrent")
	}
	if f.async {
		named = append(named, "-async")
	}
	if f.shards != 0 {
		named = append(named, "-shards")
	}
	switch {
	case len(named) > 1:
		return nil, fmt.Errorf("%s name different realizations; pick one", strings.Join(named, ", "))
	case f.wire && !f.concurrent:
		return nil, errors.New("-wire needs -concurrent")
	case f.delay != "uniform" && !f.async:
		return nil, errors.New("-delay needs -async")
	case (f.chaos != 0 || f.listen != "") && f.shards == 0:
		return nil, errors.New("-chaos and -listen need -shards of at least 2")
	case f.workers != 0 && len(named) > 0:
		return nil, fmt.Errorf("-workers sizes the BSP sweep; %s does not read it", named[0])
	}
	switch {
	case f.concurrent:
		return election.Goroutines{Wire: f.wire}, nil
	case f.async:
		model, ok := election.DelayModels(g)[f.delay]
		if !ok {
			return nil, fmt.Errorf("unknown delay model %q (want uniform, exp, pareto, fixed, fifo or slowcut)", f.delay)
		}
		return election.Async{Seed: f.seed, Delay: model}, nil
	case f.shards != 0:
		sh := election.Sharded{Shards: f.shards, Seed: f.seed}
		if f.chaos != 0 {
			sh.Faults = election.SeededShardChaos(f.chaos, f.shards)
		}
		return sh, nil
	}
	return election.BSP{Workers: f.workers}, nil
}

func run(graphKind, load, save, algo, peersList, sharddBin, network string, n, x int, seed int64, ef engineFlags, timeout time.Duration) int {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var g *election.Graph
	var err error
	if load != "" {
		g, err = loadGraph(load)
	} else {
		g, err = makeGraph(graphKind, n, seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "electsim:", err)
		return 1
	}
	if save != "" {
		if err := os.WriteFile(save, []byte(g.Text()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "electsim:", err)
			return 1
		}
	}
	label := graphKind
	if load != "" {
		label = "file:" + load
	}
	realization, err := realizationOf(g, ef)
	if err != nil {
		fmt.Fprintln(os.Stderr, "electsim:", err)
		return 1
	}
	s := election.NewSystem()
	start := time.Now()
	phi, feasible, err := s.ElectionIndexCtx(ctx, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "electsim: timed out computing the election index:", err)
		return 1
	}
	indexElapsed := time.Since(start)
	// The diameter is an all-pairs BFS; at the 100k-node scale the index
	// path targets, it would dwarf the measured computation, so it is
	// only printed for the election algorithms (which need it anyway).
	fmt.Printf("graph %s: n=%d m=%d feasible=%v", label, g.N(), g.M(), feasible)
	if feasible {
		fmt.Printf(" electionIndex=%d", phi)
	}
	fmt.Printf(" (%v)\n", indexElapsed)
	if algo == "index" {
		start = time.Now()
		classes, depth, err := s.StablePartitionCtx(ctx, g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "electsim: timed out computing the stable partition:", err)
			return 1
		}
		k := 0
		for _, c := range classes {
			if c+1 > k {
				k = c + 1
			}
		}
		fmt.Printf("stable partition: %d classes at depth %d (%v)\n", k, depth, time.Since(start))
		if !feasible {
			fmt.Println("leader election is impossible in this graph (symmetric views)")
			return 2
		}
		return 0
	}
	if !feasible {
		fmt.Println("leader election is impossible in this graph (symmetric views)")
		return 2
	}
	if ef.listen != "" {
		if algo != "mintime" {
			fmt.Fprintf(os.Stderr, "electsim: -listen (multi-process shards) supports -algo mintime only, not %q\n", algo)
			return 1
		}
		return runProcMode(ctx, s, g, phi, ef.shards, seed, ef.chaos, network, ef.listen, peersList, sharddBin)
	}

	opts := election.Options{Realization: realization, Context: ctx}
	var res *election.Result
	switch algo {
	case "mintime":
		res, err = s.RunMinTime(g, opts)
	case "generic":
		if x == 0 {
			x = phi
		}
		res, err = s.RunGeneric(g, x, opts)
	case "milestone1", "milestone2", "milestone3", "milestone4":
		res, err = s.RunMilestone(g, int((algo)[9]-'0'), opts)
	case "fullmap":
		res, err = s.RunFullMap(g, opts)
	case "dplusphi":
		res, err = s.RunDPlusPhi(g, opts)
	default:
		err = fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "electsim:", err)
		return 1
	}
	fmt.Printf("elected leader: node %d\n", res.Leader)
	// The exact diameter is an all-pairs BFS; beyond ~20k nodes it would
	// dwarf the election itself, so the big runs the BSP engine unlocks
	// report the O(n+m) double-sweep bounds instead.
	if g.N() <= 20_000 {
		fmt.Printf("time: %d rounds (diameter %d, election index %d)\n", res.Time, g.Diameter(), phi)
	} else if lo, hi := g.DiameterBounds(); lo == hi {
		fmt.Printf("time: %d rounds (diameter %d, election index %d)\n", res.Time, lo, phi)
	} else {
		fmt.Printf("time: %d rounds (diameter in [%d,%d], election index %d)\n", res.Time, lo, hi, phi)
	}
	fmt.Printf("advice: %d bits\n", res.AdviceBits)
	if ef.async {
		fmt.Printf("async schedule (%s): virtual time %.3f, max round skew %d\n", ef.delay, res.VirtualTime, res.MaxSkew)
	}
	if st := res.ShardStats; st != nil {
		fmt.Printf("sharded: %d shards, %d retries, %d crashes, %d recoveries", st.Shards, st.Retries, st.Crashes, st.Recoveries)
		if st.Recoveries > 0 {
			fmt.Printf(" (mean recovery %v)", st.MeanRecovery().Round(10*time.Microsecond))
		}
		fmt.Println()
		if sh, ok := realization.(election.Sharded); ok && sh.Faults != nil {
			fmt.Printf("chaos schedule: %s\n", sh.Faults)
		}
	}
	if res.ClassViews > 0 {
		fmt.Printf("class views interned: %d (%.1f per round)\n",
			res.ClassViews, float64(res.ClassViews)/float64(res.Time+1))
	}
	if res.Messages > 0 {
		fmt.Printf("messages: %d", res.Messages)
		if res.WireBits > 0 {
			fmt.Printf(" (%d bits on the wire)", res.WireBits)
		}
		fmt.Println()
	}
	return 0
}

func loadGraph(path string) (*election.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return election.ReadGraph(f)
}

func makeGraph(kind string, n int, seed int64) (*election.Graph, error) {
	switch kind {
	case "lollipop":
		if n < 5 {
			n = 5
		}
		return election.Lollipop(n/2+2, n-n/2-2), nil
	case "random":
		return election.RandomConnected(n, n/2, seed), nil
	case "grid":
		return election.Grid(n, n-1), nil
	case "sqgrid":
		// Near-square grid with ~n nodes total: the canonical
		// large-diameter family (diameter ~2*sqrt(n)) where the frontier
		// refiner's active-set discipline pays off most.
		w := 1
		for (w+1)*(w+1) <= n {
			w++
		}
		h := (n + w - 1) / w
		if h < 1 {
			h = 1
		}
		return election.Grid(w, h), nil
	case "k-bipartite":
		return election.CompleteBipartite(n/2, n-n/2), nil
	case "hk":
		return election.BuildHk(n, 3).G, nil
	case "necklace":
		k := n
		if k%2 != 0 {
			k++
		}
		return election.BuildNecklace(k, 3, 3, election.NecklaceCode(k, 3, 0)).G, nil
	case "s0":
		return election.BuildS0Member(1, 2, n%3).G, nil
	case "hairy":
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = i % 4
		}
		sizes[0] = 5
		return election.BuildHairyRing(sizes).G, nil
	case "torus":
		// Nearest w*h >= n with w = floor(sqrt(n)); ports shuffled so the
		// instance is not trivially symmetric.
		w := 1
		for (w+1)*(w+1) <= n {
			w++
		}
		h := (n + w - 1) / w
		if w < 3 {
			w = 3
		}
		if h < 3 {
			h = 3
		}
		return election.ShufflePorts(election.Torus(w, h), seed), nil
	case "hypercube":
		d := 1
		for 1<<(d+1) <= n {
			d++
		}
		return election.ShufflePorts(election.Hypercube(d), seed), nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}
