package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file implements a small line-oriented text format for
// port-labeled graphs, so constructions can be saved, diffed, and loaded
// by the CLI tools:
//
//	# comment
//	n <nodes>
//	e <u> <portAtU> <v> <portAtV>
//
// Each undirected edge appears exactly once. WriteTo emits edges in
// (min endpoint, port) order — the order its walk over nodes and ports
// meets them — so output is canonical: two equal graphs serialize
// identically.

// WriteTo serializes g in the text format.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n %d\n", g.N())
	for u := 0; u < g.N(); u++ {
		for p := 0; p < g.Deg(u); p++ {
			if h := g.At(u, p); u < h.To {
				fmt.Fprintf(&sb, "e %d %d %d %d\n", u, p, h.To, h.RemotePort)
			}
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// Text returns the canonical text serialization of g.
func (g *Graph) Text() string {
	var sb strings.Builder
	g.WriteTo(&sb) //nolint:errcheck // strings.Builder cannot fail
	return sb.String()
}

// Read parses the text format and validates the graph.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate n directive", line)
			}
			var n int
			if _, err := fmt.Sscanf(text, "n %d", &n); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
			b = NewBuilder(n)
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge before n directive", line)
			}
			var u, pu, v, pv int
			if _, err := fmt.Sscanf(text, "e %d %d %d %d", &u, &pu, &v, &pv); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
			b.AddEdge(u, pu, v, pv)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	return b.Finalize()
}

// Parse parses the text format from a string.
func Parse(s string) (*Graph, error) { return Read(strings.NewReader(s)) }
