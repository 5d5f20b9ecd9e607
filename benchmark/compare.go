package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchConfig is the part of BENCHMARK.json the comparison reads.
type benchConfig struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []configMetric `json:"end_to_end"`
	PerLayer []configMetric `json:"per_layer"`
}

type configMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadConfig(path string) (*benchConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c benchConfig
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// loadRecords reads the untraced run records (--out files) in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	return recs, nil
}

// compareMain prints, per workload and end-to-end metric, each side's
// median and quartiles and the change of the median, and flags every
// median of B worse than A's by more than the metric's bound. It exits
// 1 when it flagged any.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	cfgPath := fs.String("config", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchrun compare [--config BENCHMARK.json] <dirA> <dirB>")
		return 2
	}
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var sides [2]map[string][]record
	for i, dir := range fs.Args() {
		recs, err := loadRecords(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 1
		}
		sides[i] = map[string][]record{}
		for _, r := range recs {
			sides[i][r.Fingerprint.Workload] = append(sides[i][r.Fingerprint.Workload], r)
		}
		fp := recs[0].Fingerprint
		fmt.Fprintf(stdout, "%s: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s\n",
			"AB"[i:i+1], fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	}
	flagged := 0
	for _, w := range cfg.Workloads {
		a, b := sides[0][w.Name], sides[1][w.Name]
		fmt.Fprintf(stdout, "\n%s (A %d runs, B %d runs)\n", w.Name, len(a), len(b))
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-14s %11s %23s %7s %11s %23s %7s %8s %6s\n",
			"metric", "A median", "A [q1, q3]", "spread", "B median", "B [q1, q3]", "spread", "delta", "bound")
		for _, m := range cfg.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			ma, mb := medianFloat(va), medianFloat(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			delta := (mb - ma) / ma
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			mark := ""
			if worse > m.Bound {
				mark = "  WORSE"
				flagged++
			}
			fmt.Fprintf(stdout, "  %-14s %11.5g %23s %6.1f%% %11.5g %23s %6.1f%% %+7.1f%% %5.0f%%%s\n",
				m.Name, ma, fmt.Sprintf("[%.5g, %.5g]", a1, a3), 100*(a3-a1)/ma,
				mb, fmt.Sprintf("[%.5g, %.5g]", b1, b3), 100*(b3-b1)/mb, 100*delta, 100*m.Bound, mark)
		}
	}
	if flagged > 0 {
		fmt.Fprintf(stdout, "\n%d medians worse than their bound\n", flagged)
		return 1
	}
	return 0
}

func values(recs []record, name string) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), so that spreads read the same as in that check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
