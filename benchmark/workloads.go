package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/part"
)

// sizes are the input sizes of the workloads; the test runs the same
// code at tiny sizes. Random graphs have n nodes plus n/2 extra edges
// and the election index the size names (see randomGraph).
type sizes struct {
	randomN, randomPhi int     // mintime-random
	gridW, gridH       int     // mintime-sqgrid: grid sides
	shardN, shardPhi   int     // sharded2-random
	serveN, servePhi   int     // advised: each request graph
	hotGraphs          int     // advised: distinct graphs the hot requests repeat
	rate               float64 // advised: mean requests per second of the open loop
}

var fullSizes = sizes{
	randomN: 150_000, randomPhi: 5,
	gridW: 180, gridH: 181,
	shardN: 30_000, shardPhi: 5,
	serveN: 10_000, servePhi: 4, hotGraphs: 8, rate: 20,
}

const (
	// shards is the sharded workload's shard count.
	shards = 2
	// conns is the advised load's keep-alive connection count, at most
	// one per processor.
	conns = procs
)

// maxDraws bounds randomGraph's search.
const maxDraws = 64

// randomGraph returns the first random connected graph with n nodes and
// n/2 extra edges, drawn from seed and then from seeds chained off it,
// whose election index is phi. The index of such graphs varies with the
// draw (4 or 5 at 100k nodes) and every extra depth is one more round
// through every layer, so fixing it keeps a workload's shape, and its
// cost, the same under every seed.
func randomGraph(ctx context.Context, n, phi int, seed int64) (*graph.Graph, error) {
	for i := 0; i < maxDraws; i++ {
		g := graph.RandomConnectedStream(n, n/2, seed)
		got, _, err := part.ElectionIndexCtx(ctx, g)
		if err != nil {
			return nil, err
		}
		if got == phi {
			return g, nil
		}
		seed = rand.New(rand.NewSource(seed)).Int63()
	}
	return nil, fmt.Errorf("no random graph with %d nodes and election index %d in %d draws", n, phi, maxDraws)
}

type runConfig struct {
	seed    int64
	seconds time.Duration // how long the measured part of a pass lasts
	trace   bool
	sz      sizes
	tmpDir  string // scratch space (store directories), removed by the caller
}

// report is a run's outcome: the metrics of its kind (end-to-end, or
// per-layer when traced) and the spans of a traced run.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	extra             map[string]float64 // printed and recorded, not part of the result line
	spans             []span
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*report, error)
}

// workloads cover the two regimes of the paper's related work plus the
// two realizations that only some users run; BENCHMARK.json and
// README.md record why each was chosen.
var workloads = []workload{
	// Shallow and wide: phi is 5 and the last depth interns n views.
	{"mintime-random-150k", func(ctx context.Context, cfg runConfig) (*report, error) {
		return runBatch(ctx, cfg, setupRandom)
	}},
	// Deep and narrow: phi is 89, in arbitrary node order.
	{"mintime-sqgrid-33k", func(ctx context.Context, cfg runConfig) (*report, error) {
		return runBatch(ctx, cfg, setupGrid)
	}},
	// The same election through the sharded engine's exchange and journal.
	{"sharded2-random-30k", func(ctx context.Context, cfg runConfig) (*report, error) {
		return runBatch(ctx, cfg, setupSharded)
	}},
	// Request latency and disk I/O of the advice service.
	{"advised-mix-10k", runAdvised},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
