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

// TestUnmarshalBinaryAllocs pins decoding a 10k-node body to a bounded
// number of allocations: Finalize writes the CSR arrays directly, so the
// count grows with the log of the edge count (the Builder's edge slice),
// not with the nodes.
func TestUnmarshalBinaryAllocs(t *testing.T) {
	data, _ := RandomConnectedStream(10000, 10000, 1).MarshalBinary()
	if _, err := UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = UnmarshalBinary(data) }); allocs >= 100 {
		t.Fatalf("decoding a 10k-node body allocates %v times, want fewer than 100", allocs)
	}
}
