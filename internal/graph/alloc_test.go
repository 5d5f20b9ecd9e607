//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package graph

import (
	"encoding/binary"
	"testing"
)

// TestUnmarshalBinaryEdgelessAllocs pins a binary header that claims n
// nodes and no edges to the same allocations whatever n: Finalize
// rejects it as disconnected before it allocates anything per node.
func TestUnmarshalBinaryEdgelessAllocs(t *testing.T) {
	allocs := func(n uint64) float64 {
		data := binary.AppendUvarint(binary.AppendUvarint([]byte("APG1"), n), 0)
		if _, err := UnmarshalBinary(data); err == nil || err.Error() != "graph: not connected" {
			t.Fatalf("n = %d: err = %v, want graph: not connected", n, err)
		}
		return testing.AllocsPerRun(5, func() { _, _ = UnmarshalBinary(data) })
	}
	if small, large := allocs(1<<10), allocs(1<<20); small != large {
		t.Fatalf("an edgeless header allocates %v times for 2^10 nodes and %v for 2^20", small, large)
	}
}

// TestUnmarshalBinaryAllocs pins decoding a body to a small number of
// allocations, the same at 10k and 100k nodes: the edge list is sized
// once from the header, Finalize writes the CSR arrays directly, and the
// connectivity BFS allocates its queue once.
func TestUnmarshalBinaryAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		data, _ := RandomConnected(n, n, 1).MarshalBinary()
		if _, err := UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { _, _ = UnmarshalBinary(data) })
	}
	small, large := allocs(10_000), allocs(100_000)
	if small != large || small > 10 {
		t.Fatalf("decoding allocates %v times at 10k nodes and %v at 100k; want the same, at most 10", small, large)
	}
}
