package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/advice"
	"repro/internal/algorithms"
	"repro/internal/classviews"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/view"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, so work moved into set-up shows without one slow build
// deciding the number.
const setupReps = 5

// errMismatch marks a unit whose outputs failed their correctness check.
var errMismatch = errors.New("output mismatch")

// batchEnv is the inputs of a batch workload, built once per set-up,
// and its unit of work.
type batchEnv interface {
	graph() *graph.Graph
	// unit runs one timed unit and checks what it can on its own.
	unit(ctx context.Context, tr *tracer, parent int64) error
	// check runs after the timed units: the cross-unit and reference checks.
	check(ctx context.Context) error
}

// batchSetup builds a batch workload's inputs from the seed, recording
// a graph.build span under parent.
type batchSetup func(ctx context.Context, seed int64, sz sizes, tr *tracer, parent int64) (batchEnv, error)

// runBatch measures a batch workload: setupReps set-ups, then units for
// cfg.seconds. A traced run then repeats as many units with spans on,
// probes the refinement and materialization layers alone, and reports
// per-layer metrics.
func runBatch(ctx context.Context, cfg runConfig, setup batchSetup) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var env batchEnv
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		env = nil
		runtime.GC()
		sp := tr.start("setup", 0)
		t0 := time.Now()
		var err error
		env, err = setup(ctx, cfg.seed, cfg.sz, tr, sp.id)
		setups = append(setups, time.Since(t0))
		sp.end(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}

	// One untimed unit first lets the heap grow to its working size, so
	// the first timed unit does not pay for it. Its outputs are checked
	// like every other unit's.
	if err := env.unit(ctx, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	base, err := measureUnits(ctx, env, nil, 0, cfg.seconds, 0)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true, attempted: len(base.lat)}
	if !cfg.trace {
		if err := env.check(ctx); err != nil {
			return nil, err
		}
		rep.metrics = endToEndMetrics(setups, base)
		return rep, nil
	}

	root := tr.start("measure", 0)
	traced, err := measureUnits(ctx, env, tr, root.id, 0, len(base.lat))
	root.end(nil)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(traced.lat)
	probes := tr.start("probes", 0)
	err = layerProbes(ctx, env.graph(), tr, probes.id)
	probes.end(nil)
	if err != nil {
		return nil, err
	}
	if err := env.check(ctx); err != nil {
		return nil, err
	}
	rep.spans = tr.done()
	rep.metrics = batchLayers(rep.spans, base, traced)
	return rep, nil
}

// measureUnits times units until the next one would end past budget
// (at least one), or exactly count units when count > 0.
func measureUnits(ctx context.Context, env batchEnv, tr *tracer, parent int64, budget time.Duration, count int) (passStats, error) {
	var p passStats
	var allocs, mallocs []float64
	start := time.Now()
	for {
		c, err := measure(func() error {
			sp := tr.start("unit", parent)
			err := env.unit(ctx, tr, sp.id)
			sp.end(nil)
			return err
		})
		if err != nil {
			return p, err
		}
		p.lat = append(p.lat, c.wall)
		allocs = append(allocs, float64(c.allocB))
		mallocs = append(mallocs, float64(c.mallocs))
		// The live heap is only known at the end of each collection, and
		// a unit sees a handful of them, so the highest value over all
		// units comes closest to the true peak.
		p.peakLive = max(p.peakLive, float64(c.peakLive))
		if (count > 0 && len(p.lat) == count) || (count == 0 && time.Since(start)+c.wall > budget) {
			break
		}
	}
	// Goodput is taken at the median unit's time, so that one unit slowed
	// by the host does not decide the rate.
	p.goodput = 1 / median(p.lat).Seconds()
	p.allocB, p.mallocs = medianFloat(allocs), medianFloat(mallocs)
	return p, nil
}

// mintimeEnv is one graph and the results its first pipeline produced,
// which every later pipeline must reproduce.
type mintimeEnv struct {
	g         *graph.Graph
	phi, bits int
}

func setupRandom(ctx context.Context, seed int64, sz sizes, tr *tracer, parent int64) (batchEnv, error) {
	sp := tr.start("graph.build", parent)
	g, err := randomGraph(ctx, sz.randomN, sz.randomPhi, seed)
	sp.end(nil)
	return &mintimeEnv{g: g}, err
}

// setupGrid relabels the grid's nodes so that node order carries no
// locality, as in graphs that did not come from a generator.
func setupGrid(_ context.Context, seed int64, sz sizes, tr *tracer, parent int64) (batchEnv, error) {
	sp := tr.start("graph.build", parent)
	g := graph.GridStream(sz.gridW, sz.gridH)
	g = graph.RelabelNodes(g, rand.New(rand.NewSource(seed)).Perm(g.N()))
	sp.end(nil)
	return &mintimeEnv{g: g}, nil
}

func (e *mintimeEnv) graph() *graph.Graph         { return e.g }
func (e *mintimeEnv) check(context.Context) error { return nil }

// unit is the Theorem 3.1 pipeline on one fresh view table: oracle
// advice, its bit encoding, Algorithm Elect on the class-sharing BSP
// engine, and the election's verification.
func (e *mintimeEnv) unit(ctx context.Context, tr *tracer, parent int64) error {
	g := e.g
	tab := view.NewTable()

	sp := tr.start("advice.oracle", parent)
	a0 := tr.allocated()
	adv, err := advice.NewOracle(tab).ComputeAdviceCtx(ctx, g)
	sp.end(map[string]int64{"alloc_bytes": tr.allocated() - a0})
	if err != nil {
		return err
	}

	sp = tr.start("bits.encode", parent)
	enc := adv.Encode()
	sp.end(map[string]int64{"bits": int64(enc.Len())})

	sp = tr.start("sim.elect", parent)
	a0, views0 := tr.allocated(), tab.Size()
	f := algorithms.NewElectFactoryDecoded(tab, adv)
	var dc *decideCounter
	if tr != nil {
		dc = &decideCounter{}
		f = dc.wrap(f)
	}
	res, err := sim.RunBSPCtx(ctx, tab, g, f, sim.DefaultMaxRounds(g), 0)
	if err != nil {
		return err
	}
	if tr != nil {
		calls, ns := dc.totals()
		sp.end(map[string]int64{"alloc_bytes": tr.allocated() - a0, "new_views": int64(tab.Size() - views0),
			"rounds": int64(res.Time), "decide_calls": calls, "decide_ns": ns})
	}

	sp = tr.start("sim.verify", parent)
	_, err = sim.Verify(g, res.Outputs)
	sp.end(nil)
	if err != nil {
		return fmt.Errorf("%w: %v", errMismatch, err)
	}
	if res.Time != adv.Phi {
		return fmt.Errorf("%w: election took %d rounds, phi is %d", errMismatch, res.Time, adv.Phi)
	}
	if e.phi == 0 {
		e.phi, e.bits = adv.Phi, enc.Len()
	} else if adv.Phi != e.phi || enc.Len() != e.bits {
		return fmt.Errorf("%w: phi %d and %d advice bits, earlier %d and %d", errMismatch, adv.Phi, enc.Len(), e.phi, e.bits)
	}
	return nil
}

// shardedEnv is one graph, its advice (computed in set-up), and a digest
// of every sharded election's result for the check against sim.RunBSP.
type shardedEnv struct {
	g       *graph.Graph
	adv     *advice.Advice
	digests [][32]byte
}

func setupSharded(ctx context.Context, seed int64, sz sizes, tr *tracer, parent int64) (batchEnv, error) {
	sp := tr.start("graph.build", parent)
	g, err := randomGraph(ctx, sz.shardN, sz.shardPhi, seed)
	sp.end(nil)
	if err != nil {
		return nil, err
	}
	adv, err := advice.NewOracle(view.NewTable()).ComputeAdviceCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	return &shardedEnv{g: g, adv: adv}, nil
}

func (e *shardedEnv) graph() *graph.Graph { return e.g }

// unit is one election on the sharded engine with the in-process
// transport and journal and default retry options, then its
// verification. A traced unit passes explicitly built defaults wrapped
// in counting decorators.
func (e *shardedEnv) unit(ctx context.Context, tr *tracer, parent int64) error {
	tab := view.NewTable()
	f := algorithms.NewElectFactoryDecoded(tab, e.adv)
	opt := shard.Options{Shards: shards}
	var dc *decideCounter
	var ct *countingTransport
	var tj *timingJournal
	if tr != nil {
		dc = &decideCounter{}
		f = dc.wrap(f)
		ct = &countingTransport{inner: shard.NewChanTransport(shards)}
		tj = &timingJournal{inner: shard.NewMemJournal()}
		opt.Transport, opt.Journal = ct, tj
	}
	sp := tr.start("shard.run", parent)
	res, stats, err := shard.RunCtx(ctx, tab, e.g, f, opt)
	if err != nil {
		return err
	}
	if tr != nil {
		calls, ns := dc.totals()
		sp.end(map[string]int64{"rounds": int64(res.Time), "decide_calls": calls, "decide_ns": ns,
			"sends": ct.sends.Load(), "resends": int64(stats.Retries),
			"payload_words": ct.payloadWords.Load(), "views_shipped": ct.views.Load(),
			"recv_wait_ns": ct.recvWaitNS.Load(), "recv_timeouts": ct.recvTimeouts.Load(),
			"journal_writes": tj.writes.Load(), "journal_views": tj.views.Load(), "journal_ns": tj.ns.Load()})
	}
	sp = tr.start("sim.verify", parent)
	_, err = sim.Verify(e.g, res.Outputs)
	sp.end(nil)
	if err != nil {
		return fmt.Errorf("%w: %v", errMismatch, err)
	}
	e.digests = append(e.digests, digest(res))
	return nil
}

// check runs the single-process engine once and requires every sharded
// election to have produced bit-identical Outputs, Rounds and Time.
func (e *shardedEnv) check(ctx context.Context) error {
	tab := view.NewTable()
	ref, err := sim.RunBSPCtx(ctx, tab, e.g, algorithms.NewElectFactoryDecoded(tab, e.adv), sim.DefaultMaxRounds(e.g), 0)
	if err != nil {
		return fmt.Errorf("reference election: %w", err)
	}
	want := digest(ref)
	for i, d := range e.digests {
		if d != want {
			return fmt.Errorf("%w: sharded election %d differs from sim.RunBSP", errMismatch, i)
		}
	}
	return nil
}

// digest hashes a result's Outputs, Rounds and Time, telling a nil
// output from an empty one.
func digest(res *sim.Result) [32]byte {
	h := sha256.New()
	var buf []byte
	put := func(x int) { buf = binary.AppendVarint(buf, int64(x)) }
	put(res.Time)
	for v, out := range res.Outputs {
		put(res.Rounds[v])
		if out == nil {
			put(-1)
			continue
		}
		put(len(out))
		for _, p := range out {
			put(p)
		}
		if len(buf) > 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// layerProbes times refinement and materialization alone, each from
// scratch on g: inside the pipeline they interleave with the oracle's
// trie work, so its spans cannot separate them.
func layerProbes(ctx context.Context, g *graph.Graph, tr *tracer, parent int64) error {
	n := g.N()
	sp := tr.start("part.refine", parent)
	r := part.NewFrontierRefiner(g, 0)
	depths, frontier := 0, 0
	for k := r.NumClasses(); k < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.Step()
		depths++
		frontier += r.FrontierLen()
		if r.NumClasses() == k {
			return fmt.Errorf("refinement stabilized at %d of %d classes", k, n)
		}
		k = r.NumClasses()
	}
	sp.end(map[string]int64{"depths": int64(depths), "frontier_nodes": int64(frontier)})

	sp = tr.start("classviews.materialize", parent)
	tab := view.NewTable()
	m := classviews.New(tab, g)
	views := m.NumClasses()
	for k := m.NumClasses(); k < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.Step()
		if m.NumClasses() == k {
			return fmt.Errorf("materialization stabilized at %d of %d classes", k, n)
		}
		k = m.NumClasses()
		views += k
	}
	sp.end(map[string]int64{"class_views": int64(views), "table_views": int64(tab.Size())})
	return nil
}

// batchLayers derives the per-layer metrics of a traced batch run from
// its spans; base is the untraced pass, for the tracing overhead.
func batchLayers(spans []span, base, traced passStats) map[string]float64 {
	m := zeroLayers()
	units := float64(len(traced.lat))
	meas := spansUnder(spans, "measure")
	perUnit := func(name string) float64 { return totalDur(meas[name]).Seconds() / units }
	count := func(name, key string) float64 { return float64(sumCount(meas[name], key)) / units }
	both := func(key string) float64 { return count("sim.elect", key) + count("shard.run", key) }

	m["heap.peak_live_mb"] = traced.peakLive / 1e6
	m["graph.build_s"] = median(durs(spansUnder(spans, "setup")["graph.build"])).Seconds()
	m["advice.oracle_s"] = perUnit("advice.oracle")
	m["advice.oracle_alloc_mb"] = count("advice.oracle", "alloc_bytes") / 1e6
	m["bits.encode_s"] = perUnit("bits.encode")
	m["bits.advice_bits"] = count("bits.encode", "bits")
	m["sim.elect_s"] = perUnit("sim.elect")
	m["sim.elect_alloc_mb"] = count("sim.elect", "alloc_bytes") / 1e6
	m["sim.rounds"] = both("rounds")
	m["sim.new_views"] = count("sim.elect", "new_views")
	m["algorithms.decide_calls"] = both("decide_calls")
	m["algorithms.decide_cpu_s"] = both("decide_ns") / 1e9
	m["sim.verify_s"] = perUnit("sim.verify")
	m["shard.run_s"] = perUnit("shard.run")
	sends, resends := count("shard.run", "sends"), count("shard.run", "resends")
	m["shard.sends"], m["shard.resends"] = sends, resends
	if sends > 0 {
		m["shard.useful_send_ratio"] = (sends - resends) / sends
	}
	m["shard.payload_words"] = count("shard.run", "payload_words")
	m["shard.views_shipped"] = count("shard.run", "views_shipped")
	m["shard.recv_wait_s"] = count("shard.run", "recv_wait_ns") / 1e9
	m["shard.recv_timeouts"] = count("shard.run", "recv_timeouts")
	m["shard.journal_writes"] = count("shard.run", "journal_writes")
	m["shard.journal_views"] = count("shard.run", "journal_views")
	m["shard.journal_s"] = count("shard.run", "journal_ns") / 1e9

	probes := spansUnder(spans, "probes")
	m["part.refine_s"] = totalDur(probes["part.refine"]).Seconds()
	m["part.depths"] = float64(sumCount(probes["part.refine"], "depths"))
	m["part.frontier_nodes"] = float64(sumCount(probes["part.refine"], "frontier_nodes"))
	m["classviews.materialize_s"] = totalDur(probes["classviews.materialize"]).Seconds()
	m["classviews.class_views"] = float64(sumCount(probes["classviews.materialize"], "class_views"))
	m["view.table_views"] = float64(sumCount(probes["classviews.materialize"], "table_views"))
	if m["advice.oracle_s"] > 0 {
		// Derived: the oracle's time beyond materializing its views, i.e.
		// the E1/E2 trie builds and the final label sweep.
		m["advice.trie_label_s"] = m["advice.oracle_s"] - m["classviews.materialize_s"]
	}
	m["trace.overhead_frac"] = float64(median(traced.lat))/float64(median(base.lat)) - 1
	return m
}
