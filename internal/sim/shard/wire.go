package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Binary wire format for Message, in the varint idiom of
// internal/graph/binary.go: a fixed magic, unsigned varints for every
// integer (zigzag for the possibly-negative decision outputs), and a
// total decoder that returns an error — never panics or over-allocates
// — on arbitrary input. On a stream each message is framed by a
// little-endian uint32 byte length, so a reader can resynchronize only
// by dropping the connection — which is exactly the failure model: a
// torn frame kills the conn, the message is lost, and the engine's
// seq/ack/retry protocol resends it.
//
// Layout of one frame body:
//
//	magic   "SW1" (3 bytes)
//	kind    1 byte
//	from,to,round,seq  uvarint
//	then per kind:
//	  data      count, count ids
//	  ack       ackOf (1 byte)
//	  view      count, count × (id, depth, deg, edgeCount,
//	            edgeCount × (remotePort, childID))
//	  hello     incarnation
//	  report    remaining, retries, count, count × (node, round,
//	            outCount, outCount × zigzag(out))
//	  recovered durNanos
//	  proceed/stop/abort  nothing
//	  err       byteLen, bytes (UTF-8 error text)

var wireMagic = [3]byte{'S', 'W', '1'}

const (
	// maxFrameLen bounds one frame; boundary payloads are one uvarint
	// per boundary node and view batches amortize, so 64 MiB clears the
	// engine's scales (10M-node graphs ship ~MB frames) with margin.
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
		buf = binary.AppendUvarint(buf, uint64(len(m.Payload)))
		for _, id := range m.Payload {
			buf = binary.AppendUvarint(buf, id)
		}
	case KindAck:
		buf = append(buf, byte(m.AckOf))
	case KindView:
		buf = binary.AppendUvarint(buf, uint64(len(m.Views)))
		for _, v := range m.Views {
			buf = binary.AppendUvarint(buf, v.ID)
			buf = binary.AppendUvarint(buf, uint64(v.Depth))
			buf = binary.AppendUvarint(buf, uint64(v.Deg))
			buf = binary.AppendUvarint(buf, uint64(len(v.Edges)))
			for _, e := range v.Edges {
				buf = binary.AppendUvarint(buf, uint64(e.RemotePort))
				buf = binary.AppendUvarint(buf, e.Child)
			}
		}
	case KindHello:
		buf = binary.AppendUvarint(buf, uint64(m.Inc))
	case KindReport:
		buf = binary.AppendUvarint(buf, uint64(m.Remaining))
		buf = binary.AppendUvarint(buf, uint64(m.Retries))
		buf = binary.AppendUvarint(buf, uint64(len(m.Decisions)))
		for _, d := range m.Decisions {
			buf = binary.AppendUvarint(buf, uint64(d.Node))
			buf = binary.AppendUvarint(buf, uint64(d.Round))
			buf = binary.AppendUvarint(buf, uint64(len(d.Output)))
			for _, o := range d.Output {
				buf = binary.AppendVarint(buf, int64(o))
			}
		}
	case KindRecovered:
		buf = binary.AppendUvarint(buf, uint64(m.Dur))
	case KindErr:
		buf = binary.AppendUvarint(buf, uint64(len(m.Note)))
		buf = append(buf, m.Note...)
	case KindProceed, KindStop, KindAbort:
		// No payload beyond the header.
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
	r.data = r.data[k:]
	return v
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
	r.data = r.data[k:]
	return int(v)
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
		n := r.count("payload count")
		if r.err == nil && n > 0 {
			m.Payload = make([]uint64, n)
			for i := range m.Payload {
				m.Payload[i] = r.uvarint("payload id")
			}
		}
	case KindAck:
		m.AckOf = Kind(r.byte("ackOf"))
		if r.err == nil && m.AckOf != KindData && m.AckOf != KindView {
			return Message{}, fmt.Errorf("shard: ack of unexpected kind %d", m.AckOf)
		}
	case KindView:
		n := r.count("view count")
		if r.err == nil && n > 0 {
			m.Views = make([]WireView, 0, min(n, 4096))
			for i := 0; i < n && r.err == nil; i++ {
				var v WireView
				v.ID = r.uvarint("view id")
				v.Depth = r.num("view depth")
				v.Deg = r.num("view degree")
				ec := r.count("view edge count")
				if r.err == nil && ec > 0 {
					v.Edges = make([]WireEdge, 0, min(ec, 4096))
					for j := 0; j < ec && r.err == nil; j++ {
						v.Edges = append(v.Edges, WireEdge{
							RemotePort: r.num("edge port"),
							Child:      r.uvarint("edge child"),
						})
					}
				}
				if r.err == nil {
					if err := checkWireView(v); err != nil {
						return Message{}, err
					}
				}
				m.Views = append(m.Views, v)
			}
		}
	case KindHello:
		m.Inc = r.num("incarnation")
	case KindReport:
		m.Remaining = r.num("remaining")
		m.Retries = r.num("retries")
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
			m.Decisions = append(m.Decisions, d)
		}
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
	case KindProceed, KindStop, KindAbort:
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
