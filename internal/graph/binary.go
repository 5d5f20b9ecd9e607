package graph

import (
	"encoding/binary"
	"fmt"
)

// This file implements the compact binary wire format for port-labeled
// graphs used by the advice service's binary endpoint (internal/serve).
// The text format (io.go) is for humans and diffs; the binary format is
// for moving 100k-node graphs over a socket without megabytes of
// decimal digits.
//
// Layout (all integers unsigned varints, binary.Uvarint):
//
//	magic   "APG1" (4 bytes)
//	n       node count
//	m       edge count
//	m times: u, portAtU, v, portAtV  (each undirected edge once,
//	         in the canonical (min endpoint, port) order of WriteTo)
//
// The decoder is total: it returns an error — never panics — on any
// byte string, and every successfully decoded graph has passed the full
// Builder validation (simplicity, port ranges, connectivity).

// binaryMagic identifies the format; bump the digit on layout changes.
var binaryMagic = [4]byte{'A', 'P', 'G', '1'}

// maxWireNodes bounds the node count a decoder will accept, so a
// four-byte header cannot make the service allocate gigabytes before
// validation. It comfortably covers the scales the engines reach.
const maxWireNodes = 1 << 24

// AppendBinary appends the canonical binary encoding of g to buf and
// returns the extended slice. Two equal graphs encode identically
// (edges are emitted in the same canonical order as WriteTo).
func (g *Graph) AppendBinary(buf []byte) []byte {
	buf = append(buf, binaryMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(g.N()))
	buf = binary.AppendUvarint(buf, uint64(g.M()))
	for u := 0; u < g.N(); u++ {
		for p := 0; p < g.Deg(u); p++ {
			h := g.At(u, p)
			if u < h.To {
				buf = binary.AppendUvarint(buf, uint64(u))
				buf = binary.AppendUvarint(buf, uint64(p))
				buf = binary.AppendUvarint(buf, uint64(h.To))
				buf = binary.AppendUvarint(buf, uint64(h.RemotePort))
			}
		}
	}
	return buf
}

// MarshalBinary returns the canonical binary encoding of g.
func (g *Graph) MarshalBinary() ([]byte, error) {
	return g.AppendBinary(make([]byte, 0, 4+10+10*g.M())), nil
}

// UnmarshalBinary parses the binary format and validates the graph. It
// is total: arbitrary input yields an error, not a panic.
func UnmarshalBinary(data []byte) (*Graph, error) {
	if len(data) < len(binaryMagic) || [4]byte(data[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad binary magic")
	}
	data = data[4:]
	next := func(what string) (int, error) {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, fmt.Errorf("graph: truncated binary %s", what)
		}
		if v > maxWireNodes {
			return 0, fmt.Errorf("graph: binary %s %d exceeds limit %d", what, v, maxWireNodes)
		}
		data = data[k:]
		return int(v), nil
	}
	n, err := next("node count")
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("graph: binary node count %d", n)
	}
	m, err := next("edge count")
	if err != nil {
		return nil, err
	}
	// A simple graph has at most n(n-1)/2 edges; reject early so a tiny
	// header cannot demand an absurd edge loop.
	if max := n * (n - 1) / 2; m > max {
		return nil, fmt.Errorf("graph: binary edge count %d exceeds simple-graph bound %d", m, max)
	}
	// Size the edge list once. Every edge takes at least four bytes, so a
	// header cannot reserve more than the body could hold.
	b := NewBuilder(n)
	b.edges = make([]builderEdge, 0, min(m, len(data)/4))
	for i := 0; i < m; i++ {
		var e [4]int
		for j, what := range [4]string{"edge endpoint", "edge port", "edge endpoint", "edge port"} {
			if e[j], err = next(what); err != nil {
				return nil, err
			}
		}
		b.AddEdge(e[0], e[1], e[2], e[3])
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("graph: %d trailing bytes after binary edges", len(data))
	}
	return b.Finalize()
}
