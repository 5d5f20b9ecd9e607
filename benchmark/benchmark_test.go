package main

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"
)

// tinySizes run every workload's code in well under a second.
var tinySizes = sizes{
	randomN: 500, randomPhi: 3,
	gridW: 20, gridH: 25,
	shardN: 500, shardPhi: 3,
	serveN: 300, servePhi: 2, hotGraphs: 2, rate: 60,
}

func TestWorkloadsMatchConfig(t *testing.T) {
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if got, want := workloadNames(), names; !equalStrings(got, want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		conf []configMetric
	}{{"end_to_end", endToEnd, cfg.EndToEnd}, {"per_layer", perLayer, cfg.PerLayer}} {
		if len(c.defs) != len(c.conf) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", c.kind, len(c.defs), len(c.conf))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.conf[i].Name || d.unit != c.conf[i].Unit {
				t.Errorf("%s[%d]: program has %s (%s), BENCHMARK.json %s (%s)", c.kind, i, d.name, d.unit, c.conf[i].Name, c.conf[i].Unit)
			}
		}
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny
// sizes: each must pass its checks, report exactly its metric set, and
// a traced run's spans must nest.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 300 * time.Millisecond, trace: traced, sz: tinySizes, tmpDir: t.TempDir()}
			rep, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.correct || rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.correct, rep.attempted, rep.failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.name)
			}
			for k, v := range rep.metrics {
				got = append(got, k)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, k, v)
				}
			}
			sort.Strings(want)
			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if !traced {
				for _, d := range endToEnd {
					if rep.metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, rep.metrics[d.name])
					}
				}
				continue
			}
			checkSpans(t, w.name, rep.spans)
		}
	}
}

func checkSpans(t *testing.T, name string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced run recorded no spans", name)
		return
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has unknown parent %d", name, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", name, s.ID, s.Name)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("%s: span %d has negative self time %v", name, id, self)
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (children may overlap one another).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, lo, hi int64
		open := false
		for _, x := range iv {
			if open && x[0] <= hi {
				hi = max(hi, x[1])
				continue
			}
			if open {
				covered += hi - lo
			}
			lo, hi, open = x[0], x[1], true
		}
		if open {
			covered += hi - lo
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimesSubtractCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 70, End: 80},
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 30 || self[4] != 10 {
		t.Errorf("self times %v, want 1:50 2:30 4:10", self)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
