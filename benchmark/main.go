// Command benchrun is the repository's benchmark. One process runs one
// workload: the Theorem 3.1 pipeline (oracle advice → encode → Algorithm
// Elect → verify) on a shallow-wide or a deep-narrow graph, the sharded
// election, or an open-loop load on the advice service. It checks the
// outputs, prints every metric by name and unit, and ends its standard
// output with one JSON line:
//
//	{"correct":true,"attempted":5,"failed":0,"metrics":{"p50_ms":{"value":3518.2,"unit":"ms"},...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) repeats the measurement with spans recorded around the
// calls into each layer and reports the per-layer metrics instead.
// Build and run it from the repository root through run.sh:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out result.json] [--spans spans.json]
//	bash benchmark/run.sh compare [--config BENCHMARK.json] <dirA> <dirB>
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchVersion changes whenever a change to this program makes its
// numbers incomparable with earlier ones.
const benchVersion = "2"

// procs is the GOMAXPROCS of every run, fixed so that results from
// machines with more cores stay comparable with the recorded baseline.
const procs = 2

// runTimeout bounds one run, so that a hung layer fails the run instead
// of stalling the set; the slowest traced run takes about 55 s.
const runTimeout = 170 * time.Second

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// metricValue is one metric as the result line reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what --out writes: the result plus where it was measured.
type record struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Result      result             `json:"result"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type fingerprint struct {
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	BenchVersion string `json:"bench_version"`
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of every generator, permutation and arrival draw")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 repeats the measurement traced and reports per-layer metrics")
	out := fs.String("out", "", "also write the result and the machine fingerprint to this file")
	spansPath := fs.String("spans", "", "where a traced run writes its spans (default "+buildDir+"/spans/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchrun: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, sz: fullSizes, tmpDir: tmp}
	rep, err := w.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		path := *spansPath
		if path == "" {
			path = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		}
		if err := writeJSON(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun: spans:", err)
			return 1
		}
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchrun: %s did not measure %s\n", w.name, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", d.name, v, d.unit)
	}
	for _, k := range sortedKeys(rep.extra) {
		fmt.Fprintf(stdout, "%-28s %16.6f (not a result metric)\n", k, rep.extra[k])
	}
	fp := machineFingerprint(w.name, *seed)
	fpLine, _ := json.Marshal(fp) // strings and integers: cannot fail
	fmt.Fprintf(stdout, "fingerprint %s\n", fpLine)
	if *out != "" {
		rec := record{Fingerprint: fp, Seconds: *seconds, Trace: cfg.trace, Result: res, Extra: rep.extra}
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun: out:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func machineFingerprint(workload string, seed int64) fingerprint {
	return fingerprint{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		Workload:     workload,
		Seed:         seed,
		BenchVersion: benchVersion,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit, or "unknown" outside a git work
// tree. It asks git only when the current directory is the work tree's
// root, so a checkout nested in some other repository is not mistaken
// for it.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
