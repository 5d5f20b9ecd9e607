package election

// Native fuzz targets for the advice service's two binary decoders
// (DESIGN.md §8): the graph wire codec and the store's page decoder.
// Both decoders are promised total — any byte string yields an error,
// never a panic — and on accepted inputs the usual round-trip laws
// hold. The committed corpus (testdata/fuzz/...) seeds valid
// encodings of every construction family so the mutators start from
// deep inside the accept set, not from junk that dies at the magic.

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

func FuzzGraphWireCodec(f *testing.F) {
	// Valid encodings of the construction families, via the same
	// decoder the election fuzzers use.
	fuzzSeeds(f) // raw family selectors: junk to the wire decoder, cheap to keep
	for kind := 0; kind < 12; kind++ {
		g, _ := decodeFuzzGraph([]byte{byte('0' + kind), '1', '2', '3', '4', '5'})
		if g == nil {
			continue
		}
		enc, _ := g.MarshalBinary()
		f.Add(enc)
		// And a truncation, so the mutator sees a near-miss.
		f.Add(enc[:len(enc)-1])
	}
	// A header claiming 2^24 nodes and no edges: rejected as
	// disconnected before anything is allocated per node.
	f.Add([]byte{'A', 'P', 'G', '1', 0x80, 0x80, 0x80, 0x08, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.UnmarshalBinary(data)
		if err != nil {
			return // rejected, totally
		}
		// Accepted graphs re-encode canonically and round trip exactly.
		enc, _ := g.MarshalBinary()
		g2, err := graph.UnmarshalBinary(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
		for v := 0; v < g.N(); v++ {
			for p := 0; p < g.Deg(v); p++ {
				if g.At(v, p) != g2.At(v, p) {
					t.Fatalf("round trip changed adjacency at node %d port %d", v, p)
				}
			}
		}
		enc2, _ := g2.MarshalBinary()
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

func FuzzStorePage(f *testing.F) {
	// Valid pages, obtained by committing entries through the real
	// store and reading the files back.
	dir := f.TempDir()
	s, _, err := store.Open(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	var key store.Key
	for i := range key {
		key[i] = byte(i)
	}
	entryPath := filepath.Join(dir, hex.EncodeToString(key[:])+".adv")
	for _, size := range []int{0, 5, store.PayloadCap, store.PayloadCap + 1} {
		val := bytes.Repeat([]byte{0x6B}, size)
		if err := s.Put(key, val); err != nil {
			f.Fatal(err)
		}
		enc, err := os.ReadFile(entryPath)
		if err != nil {
			f.Fatal(err)
		}
		for off := 0; off < len(enc); off += store.PageSize {
			f.Add(enc[off : off+store.PageSize])
		}
		// A bit-flipped page too, so the mutator starts at a checksum
		// near-miss.
		flipped := append([]byte(nil), enc[:store.PageSize]...)
		flipped[store.PageSize/2] ^= 1
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, page []byte) {
		h, payload, err := store.DecodePage(page)
		if err != nil {
			return // rejected, totally
		}
		// Accepted pages must satisfy the decoder's own contract.
		if len(page) != store.PageSize {
			t.Fatalf("accepted a %d-byte page", len(page))
		}
		if len(payload) != int(h.PayloadLen) || int(h.PayloadLen) > store.PayloadCap {
			t.Fatalf("payload %d bytes, header says %d (cap %d)", len(payload), h.PayloadLen, store.PayloadCap)
		}
		if !h.Last && int(h.PayloadLen) != store.PayloadCap {
			t.Fatal("interior page accepted short")
		}
	})
}
