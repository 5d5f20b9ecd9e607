package advice

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/view"
)

// codecBenchGraphs are the graphs of the benchmark's two min-time
// workloads at seed 1: the first draw of RandomConnected(150,000, 75,000)
// from seed 1, or from the seeds chained off it, whose election index is
// 5, and the 180×181 grid relabeled by seed 1's permutation.
var codecBenchGraphs = []struct {
	name  string
	build func() (*graph.Graph, error)
}{
	{"random-150k", func() (*graph.Graph, error) {
		seed := int64(1)
		for range 64 {
			g := graph.RandomConnected(150_000, 75_000, seed)
			if phi, _ := part.ElectionIndex(g); phi == 5 {
				return g, nil
			}
			seed = rand.New(rand.NewSource(seed)).Int63()
		}
		return nil, fmt.Errorf("no draw with election index 5")
	}},
	{"sqgrid-33k", func() (*graph.Graph, error) {
		g := graph.Grid(180, 181)
		return graph.RelabelNodes(g, rand.New(rand.NewSource(1)).Perm(g.N())), nil
	}},
}

// BenchmarkAdviceCodec times Encode and Decode on the oracle advice of
// the benchmark's min-time graphs (47,465,946 and 11,472,346 bits).
func BenchmarkAdviceCodec(b *testing.B) {
	for _, c := range codecBenchGraphs {
		g, err := c.build()
		if err != nil {
			b.Fatal(err)
		}
		a, err := NewOracle(view.NewTable()).ComputeAdvice(g)
		if err != nil {
			b.Fatal(err)
		}
		enc := a.Encode()
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				a.Encode()
			}
			b.ReportMetric(float64(enc.Len()), "bits")
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
