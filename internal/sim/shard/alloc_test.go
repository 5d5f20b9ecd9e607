//go:build !race

// Allocation guards: the race detector allocates on its own, so these
// run only in non-race builds.

package shard

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestDecodeAllocBoundedByInput feeds the decoders short inputs whose
// element counts claim 1<<24 entries: a 12-byte KindData frame, and a
// checkpoint and a ghost record of a few bytes each. Each must fail
// having allocated less than 1 MB, not a slice sized by the claimed
// label count.
func TestDecodeAllocBoundedByInput(t *testing.T) {
	frame := append(wireMagic[:], byte(KindData), 0, 0, 0, 0)
	frame = binary.AppendUvarint(frame, maxWireCount)
	if len(frame) != 12 {
		t.Fatalf("frame is %d bytes, want 12", len(frame))
	}
	ck := fjHeader(fjKindCheckpoint)
	ck = binary.AppendUvarint(ck, 1) // round
	ck = binary.AppendUvarint(ck, 0) // remaining
	ck = binary.AppendUvarint(ck, maxWireCount)
	ckr, err := fjOpen(seal(ck), fjKindCheckpoint, "ck-1.rec")
	if err != nil {
		t.Fatal(err)
	}
	gh := fjHeader(fjKindGhosts)
	gh = binary.AppendUvarint(gh, 1) // round
	gh = binary.AppendUvarint(gh, 0) // peer
	gh = binary.AppendUvarint(gh, maxWireCount)
	ghr, err := fjOpen(seal(gh), fjKindGhosts, "gh-1-0.rec")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"data frame", func() error { _, err := decodeMessage(frame); return err }},
		{"checkpoint", func() error { _, err := decodeCheckpoint(ckr); return err }},
		{"ghosts", func() error { _, err := decodeGhosts(ghr); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded a truncated input", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing, want < 1 MB", tc.name, got)
		}
	}
}
