package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// Binary wire format for Message, in the varint idiom of
// internal/graph/binary.go: a fixed magic, unsigned varints for every
// count and id, zigzag varints for the possibly-negative labels and
// decision outputs, and a total decoder that returns an error — never
// panics or over-allocates — on arbitrary input. Every varint must be
// in its shortest form, so an accepted body is the one encoding of its
// message. On a stream each message is framed by a little-endian
// uint32 byte length, so a reader can resynchronize only by dropping
// the connection — which is exactly the failure model: a torn frame
// kills the conn, the message is lost, and the engine's seq/ack/retry
// protocol resends it.
//
// Layout of one frame body:
//
//	magic   "SW2" (3 bytes)
//	kind    1 byte
//	from,to,round,seq  uvarint
//	then per kind:
//	  data      count, count × zigzag(label)
//	  ack       nothing
//	  hello     incarnation
//	  report    remaining, retries, count, count × (node, round,
//	            outCount, outCount × zigzag(out))
//	  recovered durNanos
//	  proceed/stop/abort  nothing
//	  err       byteLen, bytes (UTF-8 error text)

var wireMagic = [3]byte{'S', 'W', '2'}

const (
	// maxFrameLen bounds one frame; boundary payloads are at most five
	// bytes per boundary node, so 64 MiB clears the engine's scales
	// with margin.
	maxFrameLen = 64 << 20
	// maxWireCount bounds every element count before allocation, so a
	// short malicious frame cannot demand gigabytes.
	maxWireCount = 1 << 24
)

// appendMessage appends the frame body encoding of m to buf.
func appendMessage(buf []byte, m Message) []byte {
	buf = append(buf, wireMagic[:]...)
	buf = append(buf, byte(m.Kind))
	buf = binary.AppendUvarint(buf, uint64(m.From))
	buf = binary.AppendUvarint(buf, uint64(m.To))
	buf = binary.AppendUvarint(buf, uint64(m.Round))
	buf = binary.AppendUvarint(buf, m.Seq)
	switch m.Kind {
	case KindData:
		buf = appendLabels(buf, m.Payload)
	case KindHello:
		buf = binary.AppendUvarint(buf, uint64(m.Inc))
	case KindReport:
		buf = binary.AppendUvarint(buf, uint64(m.Remaining))
		buf = binary.AppendUvarint(buf, uint64(m.Retries))
		buf = appendDecisions(buf, m.Decisions)
	case KindRecovered:
		buf = binary.AppendUvarint(buf, uint64(m.Dur))
	case KindErr:
		buf = binary.AppendUvarint(buf, uint64(len(m.Note)))
		buf = append(buf, m.Note...)
	case KindAck, KindProceed, KindStop, KindAbort:
		// No payload beyond the header.
	}
	return buf
}

// appendDecisions appends a count and, per decision, its node, round,
// output count and the zigzag varint of every output.
func appendDecisions(buf []byte, ds []Decision) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ds)))
	for _, d := range ds {
		buf = binary.AppendUvarint(buf, uint64(d.Node))
		buf = binary.AppendUvarint(buf, uint64(d.Round))
		buf = binary.AppendUvarint(buf, uint64(len(d.Output)))
		for _, o := range d.Output {
			buf = binary.AppendVarint(buf, int64(o))
		}
	}
	return buf
}

// appendLabels appends a count and the zigzag varint of every label.
func appendLabels(buf []byte, labels []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = binary.AppendVarint(buf, int64(l))
	}
	return buf
}

// wireReader decodes a frame body with sticky errors, so decode paths
// read linearly and check once.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("shard: "+format, args...)
	}
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.data)
	if k <= 0 {
		r.fail("truncated frame %s", what)
		return 0
	}
	if !r.shortest(k, what) {
		return 0
	}
	r.data = r.data[k:]
	return v
}

// shortest fails unless the k-byte varint at the head of the data is
// in its shortest form: an overlong one ends in a zero byte.
func (r *wireReader) shortest(k int, what string) bool {
	if k > 1 && r.data[k-1] == 0 {
		r.fail("overlong varint for frame %s", what)
		return false
	}
	return true
}

// count reads an element count and bounds it. Every counted element
// takes at least one byte, so a count beyond the bytes left is
// malformed; this keeps what a decoder allocates proportional to its
// input.
func (r *wireReader) count(what string) int {
	v := r.uvarint(what)
	switch {
	case v > maxWireCount:
		r.fail("frame %s %d exceeds limit %d", what, v, maxWireCount)
		return 0
	case v > uint64(len(r.data)):
		r.fail("frame %s %d exceeds the %d bytes left", what, v, len(r.data))
		return 0
	}
	return int(v)
}

// num reads a non-negative int that must fit the platform int.
func (r *wireReader) num(what string) int {
	v := r.uvarint(what)
	if v > 1<<62 {
		r.fail("frame %s %d out of range", what, v)
		return 0
	}
	return int(v)
}

func (r *wireReader) varint(what string) int {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.data)
	if k <= 0 {
		r.fail("truncated frame %s", what)
		return 0
	}
	if !r.shortest(k, what) {
		return 0
	}
	r.data = r.data[k:]
	return int(v)
}

// labels reads a count and that many labels, each a zigzag varint that
// must fit an int32.
func (r *wireReader) labels(what string) []int32 {
	n := r.count(what + " count")
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		v := r.varint(what)
		if v < math.MinInt32 || v > math.MaxInt32 {
			r.fail("frame %s %d out of int32 range", what, v)
		}
		out[i] = int32(v)
	}
	return out
}

func (r *wireReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.data) == 0 {
		r.fail("truncated frame %s", what)
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// decisions reads what appendDecisions wrote.
func (r *wireReader) decisions() []Decision {
	var ds []Decision
	n := r.count("decision count")
	for i := 0; i < n && r.err == nil; i++ {
		d := Decision{Node: r.num("decision node"), Round: r.num("decision round")}
		oc := r.count("output count")
		// A decided node's Output is non-nil by contract even when
		// empty; the count alone cannot carry that distinction, so
		// decode canonicalizes to the empty slice.
		d.Output = []int{}
		for j := 0; j < oc && r.err == nil; j++ {
			d.Output = append(d.Output, r.varint("output"))
		}
		ds = append(ds, d)
	}
	return ds
}

// end fails if any bytes are left.
func (r *wireReader) end() {
	if r.err == nil && len(r.data) != 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
}

// decodeMessage parses one frame body. It is total on arbitrary input.
func decodeMessage(data []byte) (Message, error) {
	if len(data) < len(wireMagic) || [3]byte(data[:3]) != wireMagic {
		return Message{}, fmt.Errorf("shard: bad frame magic")
	}
	r := &wireReader{data: data[3:]}
	var m Message
	m.Kind = Kind(r.byte("kind"))
	m.From = r.num("from")
	m.To = r.num("to")
	m.Round = r.num("round")
	m.Seq = r.uvarint("seq")
	switch m.Kind {
	case KindData:
		m.Payload = r.labels("payload label")
	case KindHello:
		m.Inc = r.num("incarnation")
	case KindReport:
		m.Remaining = r.num("remaining")
		m.Retries = r.num("retries")
		m.Decisions = r.decisions()
	case KindRecovered:
		m.Dur = time.Duration(r.num("duration"))
	case KindErr:
		n := r.count("note length")
		if r.err == nil {
			if len(r.data) < n {
				return Message{}, fmt.Errorf("shard: truncated frame note")
			}
			m.Note = string(r.data[:n])
			r.data = r.data[n:]
		}
	case KindAck, KindProceed, KindStop, KindAbort:
		// No payload beyond the header.
	default:
		return Message{}, fmt.Errorf("shard: unknown frame kind %d", m.Kind)
	}
	if r.err != nil {
		return Message{}, r.err
	}
	if len(r.data) != 0 {
		return Message{}, fmt.Errorf("shard: %d trailing bytes after %v frame", len(r.data), m.Kind)
	}
	return m, nil
}

// writeFrame writes m as one length-prefixed frame. Callers serialize
// writes to a shared conn themselves.
func writeFrame(w io.Writer, m Message) error {
	body := appendMessage(make([]byte, 4, 64), m)
	if len(body)-4 > maxFrameLen {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit %d", len(body)-4, maxFrameLen)
	}
	binary.LittleEndian.PutUint32(body[:4], uint32(len(body)-4))
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame. An error means the stream
// is unusable (torn frame, oversized length, malformed body) and the
// caller must drop the connection.
func readFrame(br *bufio.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrameLen {
		return Message{}, fmt.Errorf("shard: frame length %d exceeds limit %d", n, maxFrameLen)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return Message{}, err
	}
	return decodeMessage(body)
}
