package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// wireMessages returns one representative of every frame kind, with
// every kind-specific field populated (negative and extreme labels and
// decision outputs for the zigzag path, empty-payload control frames).
func wireMessages() map[string]Message {
	return map[string]Message{
		"data": {From: 1, To: 2, Kind: KindData, Round: 5, Seq: 99,
			Payload: []int32{0, 7, 1 << 20, 42}},
		"data-empty": {From: 0, To: 1, Kind: KindData, Round: 0, Seq: 1},
		"data-extremes": {From: 2, To: 0, Kind: KindData, Round: 3, Seq: 7,
			Payload: []int32{math.MinInt32, -1, math.MaxInt32}},
		"ack-data": {From: 2, To: 1, Kind: KindAck, Round: 5, Seq: 99},
		"hello":    {From: 2, Kind: KindHello, Inc: 4},
		"report": {From: 1, Kind: KindReport, Round: 9, Remaining: 17, Retries: 3,
			Decisions: []Decision{
				{Node: 40, Round: 9, Output: []int{1, -3, 0, 2}},
				{Node: 41, Round: 9, Output: []int{-1}},
				{Node: 42, Round: 9, Output: []int{}}, // decided, empty — must stay non-nil
			}},
		"report-empty": {From: 0, Kind: KindReport, Round: 2, Remaining: 20},
		"recovered":    {From: 0, Kind: KindRecovered, Dur: 1500 * time.Microsecond},
		"proceed":      {To: 1, Kind: KindProceed, Round: 12},
		"stop":         {To: 0, Kind: KindStop},
		"abort":        {To: 2, Kind: KindAbort},
		"err":          {From: 1, Kind: KindErr, Note: "shard 1 exploded: привет"},
	}
}

// TestWireRoundTrip pins the codec: every kind survives
// appendMessage/decodeMessage and the length-prefixed stream framing
// bit-for-bit.
func TestWireRoundTrip(t *testing.T) {
	for name, m := range wireMessages() {
		body := appendMessage(nil, m)
		got, err := decodeMessage(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, m)
		}

		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			t.Fatalf("%s: writeFrame: %v", name, err)
		}
		got, err = readFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("%s: readFrame: %v", name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: framed round trip %+v, want %+v", name, got, m)
		}
	}
}

// TestWireStream checks several frames back to back on one stream —
// the shape a NetTransport readLoop actually sees.
func TestWireStream(t *testing.T) {
	msgs := wireMessages()
	var buf bytes.Buffer
	order := []string{"data-extremes", "data", "ack-data", "report", "err"}
	for _, name := range order {
		if err := writeFrame(&buf, msgs[name]); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for _, name := range order {
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, msgs[name]) {
			t.Errorf("%s: stream decoded %+v, want %+v", name, got, msgs[name])
		}
	}
}

// TestWireDecodeTotality truncates every valid encoding at every byte
// boundary: the decoder must return an error — never panic, never
// accept — on every proper prefix.
func TestWireDecodeTotality(t *testing.T) {
	for name, m := range wireMessages() {
		body := appendMessage(nil, m)
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeMessage(body[:cut]); err == nil {
				t.Errorf("%s: decode accepted a %d/%d-byte prefix", name, cut, len(body))
			}
		}
	}
}

// FuzzShardFrame drives decodeMessage with arbitrary frame bodies, as a
// peer or a torn stream could deliver them. The decoder must never
// panic, and every frame it accepts must be a fixed point of the codec:
// re-encoding the decoded message and decoding that again gives the
// same message and the same bytes.
func FuzzShardFrame(f *testing.F) {
	for _, m := range wireMessages() {
		f.Add(appendMessage(nil, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if err != nil {
			return
		}
		body := appendMessage(nil, m)
		again, err := decodeMessage(body)
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message: %+v, want %+v", again, m)
		}
		if !bytes.Equal(appendMessage(nil, again), body) {
			t.Fatalf("encoding of %+v is not stable", m)
		}
	})
}

// TestWireRejectsMalformed covers the structured rejections: bad magic,
// unknown kinds (view frames among them), trailing garbage, hostile
// counts, labels past int32 and overlong varints.
func TestWireRejectsMalformed(t *testing.T) {
	valid := appendMessage(nil, Message{From: 0, To: 1, Kind: KindData, Payload: []int32{1}})

	t.Run("bad-magic", func(t *testing.T) {
		body := append([]byte(nil), valid...)
		body[0] = 'X'
		if _, err := decodeMessage(body); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		body := appendMessage(nil, Message{Kind: Kind(200)})
		if _, err := decodeMessage(body); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("ctrl-base-kind", func(t *testing.T) {
		// kindCtrlBase itself is not a real kind.
		body := appendMessage(nil, Message{Kind: kindCtrlBase})
		if _, err := decodeMessage(body); err == nil {
			t.Fatal("decoder accepted the reserved control-base kind")
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		body := append(append([]byte(nil), valid...), 0xAB)
		if _, err := decodeMessage(body); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("hostile-count", func(t *testing.T) {
		// A short frame promising 2^24+1 payload ids must be rejected by
		// the count bound, not by attempting the allocation.
		body := append([]byte(nil), wireMagic[:]...)
		body = append(body, byte(KindData))
		for i := 0; i < 4; i++ { // from, to, round, seq
			body = binary.AppendUvarint(body, 0)
		}
		body = binary.AppendUvarint(body, maxWireCount+1)
		if _, err := decodeMessage(body); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("ack-of-garbage", func(t *testing.T) {
		// An ack carries nothing after its header.
		body := append(appendMessage(nil, Message{Kind: KindAck}), byte(KindHello))
		if _, err := decodeMessage(body); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("view-kind", func(t *testing.T) {
		body := appendMessage(nil, Message{Kind: KindView})
		if _, err := decodeMessage(body); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("label-out-of-range", func(t *testing.T) {
		body := append([]byte(nil), wireMagic[:]...)
		body = append(body, byte(KindData), 0, 1, 0, 0, 1)
		body = binary.AppendVarint(body, math.MaxInt32+1)
		if _, err := decodeMessage(body); err == nil || !strings.Contains(err.Error(), "out of int32 range") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("overlong-varint", func(t *testing.T) {
		// The round, 0, written in two bytes instead of one.
		body := append([]byte(nil), wireMagic[:]...)
		body = append(body, byte(KindProceed), 0, 1, 0x80, 0x00, 0)
		if _, err := decodeMessage(body); err == nil || !strings.Contains(err.Error(), "overlong") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestWireFrameLimits pins the stream-level bounds: an oversized length
// prefix and a torn frame both fail the read (and, per the transport
// contract, kill the connection).
func TestWireFrameLimits(t *testing.T) {
	t.Run("oversized-length", func(t *testing.T) {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], maxFrameLen+1)
		_, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])))
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("torn-frame", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, Message{Kind: KindData, Payload: []int32{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		torn := buf.Bytes()[:buf.Len()-2]
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(torn))); err == nil {
			t.Fatal("readFrame accepted a torn frame")
		}
	})
	t.Run("oversized-write", func(t *testing.T) {
		m := Message{Kind: KindErr, Note: strings.Repeat("x", maxFrameLen+1)}
		if err := writeFrame(&bytes.Buffer{}, m); err == nil {
			t.Fatal("writeFrame accepted an oversized frame")
		}
	})
}
