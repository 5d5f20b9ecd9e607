package advice

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/trie"
	"repro/internal/view"
)

// referenceEncode and referenceDecode are the nested codec that Encode
// and Decode replaced, kept as the pin of the one-pass codec: they build
// and split every level of Concat(bin(φ), Concat(bin(E1), bin(E2)),
// bin(A2)) as a string of its own.
func referenceEncode(a *Advice) bits.String {
	a1 := bits.Concat(
		bits.ConcatInts(a.E1.Tokens()...),
		bits.ConcatInts(a.E2.TokensE2()...),
	)
	a2 := encodeTree(a.Tree)
	return bits.Concat(bits.Bin(a.Phi), a1, a2)
}

func referenceDecode(s bits.String) (*Advice, error) {
	parts, err := bits.Decode(s)
	if err != nil {
		return nil, err
	}
	if len(parts) != 3 {
		return nil, fmt.Errorf("advice: top level has %d parts, want 3", len(parts))
	}
	phi, err := bits.ParseBin(parts[0])
	if err != nil {
		return nil, fmt.Errorf("advice: bad phi: %w", err)
	}
	if phi < 1 {
		return nil, fmt.Errorf("advice: phi = %d < 1", phi)
	}
	a1Parts, err := bits.Decode(parts[1])
	if err != nil {
		return nil, fmt.Errorf("advice: bad A1: %w", err)
	}
	if len(a1Parts) != 2 {
		return nil, fmt.Errorf("advice: A1 has %d parts, want 2", len(a1Parts))
	}
	e1Tokens, err := bits.DecodeInts(a1Parts[0])
	if err != nil {
		return nil, fmt.Errorf("advice: bad E1: %w", err)
	}
	e1, used, err := trie.FromTokens(e1Tokens)
	if err != nil {
		return nil, fmt.Errorf("advice: bad E1 trie: %w", err)
	}
	if used != len(e1Tokens) {
		return nil, errors.New("advice: trailing E1 tokens")
	}
	e2Tokens, err := bits.DecodeInts(a1Parts[1])
	if err != nil {
		return nil, fmt.Errorf("advice: bad E2: %w", err)
	}
	e2, err := trie.E2FromTokens(e2Tokens)
	if err != nil {
		return nil, fmt.Errorf("advice: bad E2 list: %w", err)
	}
	tree, err := decodeTree(parts[2])
	if err != nil {
		return nil, fmt.Errorf("advice: bad A2: %w", err)
	}
	a := &Advice{Phi: phi, E1: e1, E2: e2, Tree: tree}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// checkCodec pins Decode to the reference on s: Decode accepts s exactly
// when referenceDecode does and referenceEncode gives s back, and then
// the two decode to the same advice.
func checkCodec(t *testing.T, s bits.String) {
	t.Helper()
	got, err := Decode(s)
	want, wantErr := referenceDecode(s)
	canonical := wantErr == nil && bits.Equal(referenceEncode(want), s)
	if (err == nil) != canonical {
		t.Fatalf("%d bits %s: Decode error %v, reference error %v, canonical %v", s.Len(), abbrev(s), err, wantErr, canonical)
	}
	if err != nil {
		return
	}
	if got.Phi != want.Phi || !reflect.DeepEqual(got.E1, want.E1) || !reflect.DeepEqual(got.Tree, want.Tree) || len(got.E2) != len(want.E2) {
		t.Fatalf("%d bits %s: Decode and the reference differ", s.Len(), abbrev(s))
	}
	for i := range got.E2 {
		if got.E2[i].Depth != want.E2[i].Depth || !reflect.DeepEqual(got.E2[i].Couples, want.E2[i].Couples) {
			t.Fatalf("%d bits %s: Decode and the reference differ at E2 level %d", s.Len(), abbrev(s), i)
		}
	}
}

func abbrev(s bits.String) string {
	if text := s.String(); len(text) > 96 {
		return text[:96] + "…"
	}
	return s.String()
}

// fuzzBits reads a fuzz input as a bit string: the bytes after the first,
// less the last data[0]%8 bits.
func fuzzBits(data []byte) bits.String {
	if len(data) < 2 {
		return bits.String{}
	}
	n := 8*(len(data)-1) - int(data[0]%8)
	return prefix(data[1:], n)
}

// prefix returns the first n bits packed in data.
func prefix(data []byte, n int) bits.String {
	b := append([]byte(nil), data[:(n+7)/8]...)
	if n%8 != 0 {
		b[len(b)-1] &= 0xFF << (8 - n%8)
	}
	s, err := bits.FromBytes(b, n)
	if err != nil {
		panic(err)
	}
	return s
}

// fuzzGraph reads a fuzz input as a graph of at most 64 nodes: a random
// connected graph, a lollipop (deep φ) or a port-shuffled grid, sized by
// its first bytes.
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) < 4 {
		return nil
	}
	a, b := int(data[2]), int(data[3])
	switch data[1] % 3 {
	case 0:
		n := 3 + a%62
		return graph.RandomConnected(n, b%n, int64(data[0]))
	case 1:
		return graph.Lollipop(3+a%8, 1+b%50)
	default:
		return graph.ShufflePorts(graph.Grid(2+a%7, 2+b%7), int64(data[0]))
	}
}

// FuzzAdviceCodec pins Decode and Encode to the reference codec. On the
// input read as bits, Decode accepts exactly the canonical strings the
// reference accepts, and decodes them to the same advice. On the oracle
// advice of the input read as a graph, Encode equals referenceEncode,
// and truncations and single-bit flips of it, at positions the input
// picks, go through the same check.
func FuzzAdviceCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, fuzzBits(data))
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		a, err := NewOracle(view.NewTable()).ComputeAdvice(g)
		if errors.Is(err, ErrInfeasible) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		enc := a.Encode()
		if want := referenceEncode(a); !bits.Equal(enc, want) {
			t.Fatalf("Encode differs from the reference: %d bits vs %d", enc.Len(), want.Len())
		}
		checkCodec(t, enc)
		packed := enc.AppendBytes(nil)
		for i := 4; i+1 < len(data) && i < 12; i += 2 {
			p := (int(data[i])<<8 | int(data[i+1])) % enc.Len()
			checkCodec(t, prefix(packed, p))
			flipped := append([]byte(nil), packed...)
			flipped[p/8] ^= 0x80 >> (p % 8)
			checkCodec(t, prefix(flipped, enc.Len()))
		}
	})
}

// TestEncodeMatchesReference pins Encode bit for bit to the nested
// codec on every test graph, and Decode to it on every prefix and every
// single-bit flip of the encoding of a small one.
func TestEncodeMatchesReference(t *testing.T) {
	for name, g := range feasibleTestGraphs() {
		_, a := compute(t, g)
		if enc, want := a.Encode(), referenceEncode(a); !bits.Equal(enc, want) {
			t.Fatalf("%s: Encode differs from the reference: %d bits vs %d", name, enc.Len(), want.Len())
		}
	}
	_, a := compute(t, graph.Lollipop(4, 2))
	enc := a.Encode()
	packed := enc.AppendBytes(nil)
	for p := 0; p < enc.Len(); p++ {
		checkCodec(t, prefix(packed, p))
		flipped := append([]byte(nil), packed...)
		flipped[p/8] ^= 0x80 >> (p % 8)
		checkCodec(t, prefix(flipped, enc.Len()))
	}
}

// TestDecodeNamesPart pins the error of each kind of malformation to the
// part it is in. The nested reference rejects them too, except a leading
// zero, which it reads and re-encodes differently.
func TestDecodeNamesPart(t *testing.T) {
	_, a := compute(t, graph.Lollipop(4, 2))
	valid := a.Encode().String()
	phiEnd := strings.Index(valid, "01") // bin(φ) is 00/11 pairs, then 01
	a2Token := strings.LastIndex(valid, "0011") + 4
	cases := map[string]struct {
		bits, want string
		refAccepts bool
	}{
		"invalid φ window":   {"10" + valid[2:], "bad φ", false},
		"leading zero in φ":  {"00" + valid, "bad φ: bits: token with a leading zero", true},
		"odd tail":           {valid + "0", "bad A2: bits: string ends inside", false},
		"leading zero in A2": {valid[:a2Token] + "0000" + valid[a2Token:], "bad A2: bits: token with a leading zero", true},
		"empty E1":           {valid[:phiEnd+2] + "0011" + valid[phiEnd+2:], "bad E1: bits: empty token", false},
		"one part":           {valid[:phiEnd], "top level has 1 part", false},
		"four parts":         {valid + "01" + "0000", "top level has more than 3 parts", false},
		"A1 with 1 part":     {valid[:phiEnd+2] + "00000000" + "01" + "0000", "A1 has 1 part", false},
	}
	for name, c := range cases {
		_, err := Decode(bits.New(c.bits))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode error %v, want one containing %q", name, err, c.want)
		}
		if _, refErr := referenceDecode(bits.New(c.bits)); (refErr == nil) != c.refAccepts {
			t.Errorf("%s: reference error %v", name, refErr)
		}
	}
}
