package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// all of them; its "unit" of work is one pipeline (mintime-*), one
// sharded election plus verify (sharded2-*) or one request (advised-*).
// Two measures move by more between runs of the same seed on two
// processors than any bound the benchmark may set, so the traced run
// reports them instead: the service's latency beyond the median (its
// warm and cold tiers, and with them any tail percentile, move by
// 20-40%), and the peak live heap, which is only known at the end of a
// collection and so lands anywhere between 70% and 100% of the true peak
// when a unit sees a handful of them. BENCHMARK.json lists the same
// names with their regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median of setupReps set-ups
	{"p50_ms", "ms"},         // median unit latency (advised: falls among memo hits)
	{"goodput_per_s", "1/s"}, // units completed correctly per second (advised: within 1 s)
	{"alloc_mb", "MB"},       // bytes allocated per unit
	{"allocs", "count"},      // allocations per unit
}

// perLayer are the metrics of a traced run, each read from the spans the
// benchmark records around its calls into one layer. A layer the
// workload does not exercise reports 0. Times and counts are per unit
// unless the name says otherwise; README.md maps each to the end-to-end
// metric it should move.
var perLayer = []metricDef{
	{"heap.peak_live_mb", "MB"}, // highest live heap seen while units ran (advised: the window)
	{"graph.build_s", "s"},
	{"part.refine_s", "s"},
	{"part.depths", "count"},
	{"part.frontier_nodes", "count"},
	{"classviews.materialize_s", "s"},
	{"classviews.class_views", "count"},
	{"view.table_views", "count"},
	{"advice.oracle_s", "s"},
	{"advice.oracle_alloc_mb", "MB"},
	{"advice.trie_label_s", "s"},
	{"bits.encode_s", "s"},
	{"bits.advice_bits", "count"},
	{"sim.elect_s", "s"},
	{"sim.elect_alloc_mb", "MB"},
	{"sim.rounds", "count"},
	{"sim.new_views", "count"},
	{"algorithms.decide_calls", "count"},
	{"algorithms.decide_cpu_s", "s"},
	{"sim.verify_s", "s"},
	{"shard.run_s", "s"},
	{"shard.sends", "count"},
	{"shard.resends", "count"},
	{"shard.useful_send_ratio", "ratio"},
	{"shard.payload_words", "count"},
	{"shard.views_shipped", "count"},
	{"shard.recv_wait_s", "s"},
	{"shard.recv_timeouts", "count"},
	{"shard.journal_writes", "count"},
	{"shard.journal_views", "count"},
	{"shard.journal_s", "s"},
	{"serve.hot_p50_ms", "ms"},
	{"serve.warm_p50_ms", "ms"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.memo_hits", "count"},
	{"serve.store_hits", "count"},
	{"serve.computed", "count"},
	{"serve.deduplicated", "count"},
	{"serve.shed", "count"},
	{"serve.memo_hit_ratio", "ratio"},
	{"graph.decode_ms", "ms"},
	{"canon.hash_ms", "ms"},
	{"store.read_ms", "ms"},
	{"store.reads", "count"},
	{"store.write_ms", "ms"},
	{"store.writes", "count"},
	{"store.renames", "count"},
	{"advice.cold_oracle_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill
// in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// passStats is one measurement pass: the latency of each unit and what
// the units cost.
type passStats struct {
	lat      []time.Duration // every completed unit
	goodput  float64         // units completed correctly per second
	allocB   float64         // bytes allocated per unit
	mallocs  float64         // allocations per unit
	peakLive float64         // bytes
}

func endToEndMetrics(setups []time.Duration, p passStats) map[string]float64 {
	return map[string]float64{
		"setup_s":       median(setups).Seconds(),
		"p50_ms":        ms(median(p.lat)),
		"goodput_per_s": p.goodput,
		"alloc_mb":      p.allocB / 1e6,
		"allocs":        p.mallocs,
	}
}

// unitCost is what one timed call cost.
type unitCost struct {
	wall     time.Duration
	allocB   uint64
	mallocs  uint64
	peakLive uint64
}

// measure runs f after a collection, so every unit starts from the same
// heap, and reports its wall time, allocation and peak live heap.
func measure(f func() error) (unitCost, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := sampleLiveHeap()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	peak := stop()
	runtime.ReadMemStats(&after)
	return unitCost{
		wall:     wall,
		allocB:   after.TotalAlloc - before.TotalAlloc,
		mallocs:  after.Mallocs - before.Mallocs,
		peakLive: peak,
	}, err
}

// liveHeapEvery is the sampling period of the live-heap watermark.
const liveHeapEvery = 10 * time.Millisecond

// sampleLiveHeap samples the live heap (as of the last collection) in
// the background and returns a function that stops the sampler, waits
// for it and returns the highest value seen.
func sampleLiveHeap() func() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			peak = max(peak, sample[0].Value.Uint64())
		}
	}
	read()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(liveHeapEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-finished
		return peak
	}
}

// percentile is the nearest-rank p-quantile of ds (0 when empty).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
