// Package bits implements binary strings and the encoding primitives used
// by the advice construction of Dieudonné & Pelc: binary representations
// bin(x) of non-negative integers, and the self-delimiting "doubling"
// code Concat/Decode of Section 3, which encodes a sequence of binary
// substrings (A1, ..., Ak) by doubling each digit of each substring and
// inserting the separator 01 between consecutive substrings.
//
// The advice string nests that code three deep. A Writer writes such a
// string token by token, every digit and separator directly at its final
// width (WriteBinRepeated with 2, 4 or 8 bits per digit, WriteBits for
// the separators), into one buffer sized by the encoder's length walk.
// NestedReader reads it back: Token and List read all nesting levels in
// one table-driven pass over 64-bit windows, and List with no array
// counts a list's tokens, so a decoder sizes its arrays with the same
// parser. Concat, Decode and DecodeInts remain the one-level forms.
//
// The size of advice reported throughout this repository is the length in
// bits of strings produced by this package, so the constants match the
// paper's accounting exactly.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
	"strings"
	"unicode/utf8"
)

// String is an immutable sequence of bits. The zero value is the empty
// string. Bits are stored packed, eight per byte, most significant first
// within each byte.
type String struct {
	b []byte
	n int
}

// New returns a bit string parsed from a textual sequence of '0' and '1'
// characters. It panics on any other character; it is intended for tests
// and literals. Text from outside the program goes through Parse.
func New(s string) String {
	b, err := Parse(s)
	if err != nil {
		panic("bits.New: " + err.Error())
	}
	return b
}

// Parse returns the bit string written as a sequence of '0' and '1'
// characters, and an error naming the first other character. It packs
// eight characters into each byte directly.
func Parse(s string) (String, error) {
	b := make([]byte, (len(s)+7)>>3)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			b[i>>3] |= 0x80 >> uint(i&7)
		default:
			r, _ := utf8.DecodeRuneInString(s[i:])
			return String{}, fmt.Errorf("bits: invalid character %q at offset %d", r, i)
		}
	}
	return String{b: b, n: len(s)}, nil
}

// FromBytes returns the bit string of length n packed most significant
// bit first in data, as AppendBytes writes it. data must hold exactly
// (n+7)/8 bytes and its padding bits must be zero, so every bit string
// has exactly one packed form (Equal compares whole bytes). The result
// owns a copy of data.
func FromBytes(data []byte, n int) (String, error) {
	if n < 0 || len(data) != (n+7)>>3 {
		return String{}, fmt.Errorf("bits: %d packed bytes for %d bits", len(data), n)
	}
	if n&7 != 0 {
		if pad := data[len(data)-1] & (0xFF >> uint(n&7)); pad != 0 {
			return String{}, fmt.Errorf("bits: nonzero padding bits %#x", pad)
		}
	}
	return String{b: append([]byte(nil), data...), n: n}, nil
}

// AppendBytes appends the bits of s to dst packed most significant bit
// first, the final byte padded with zeros, and returns the extended
// slice. FromBytes inverts it.
func (s String) AppendBytes(dst []byte) []byte { return append(dst, s.b...) }

// Len returns the number of bits in s.
func (s String) Len() int { return s.n }

// Bit returns the i-th bit of s, 0-indexed. It panics if i is out of range.
func (s String) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, s.n))
	}
	return s.b[i>>3]&(1<<(7-uint(i&7))) != 0
}

// Bit1 returns the j-th bit of s using the paper's 1-based indexing, and
// false when j exceeds the length (a convention used by trie queries so
// that out-of-range queries deterministically answer "bit is 0").
func (s String) Bit1(j int) bool {
	if j < 1 || j > s.n {
		return false
	}
	return s.Bit(j - 1)
}

// String renders s as a sequence of '0' and '1' characters, one byte of
// s (eight characters) at a time.
func (s String) String() string {
	var sb strings.Builder
	sb.Grow(s.n)
	for k := 0; k<<3 < s.n; k++ {
		sb.Write(digitText[s.b[k]][:min(8, s.n-k<<3)])
	}
	return sb.String()
}

// digitText[b] is the byte b written as eight '0'/'1' characters, most
// significant bit first.
var digitText = func() (t [256][8]byte) {
	for b := range t {
		for i := range t[b] {
			t[b][i] = '0' + byte(b>>uint(7-i)&1)
		}
	}
	return
}()

// Equal reports whether s and t contain the same bits.
func Equal(s, t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.b {
		if s.b[i] != t.b[i] {
			return false
		}
	}
	return true
}

// FirstDiff returns the smallest 0-based index at which s and t
// disagree, comparing only the common prefix of the two strings; it
// returns -1 when they agree on the first min(Len) bits. It scans whole
// bytes, so finding the discriminating bit of two long encodings does
// not walk them bit by bit (the depth-1 trie construction of BuildTrie
// is the caller that cares).
func FirstDiff(s, t String) int {
	n := s.n
	if t.n < n {
		n = t.n
	}
	nb := (n + 7) >> 3
	for k := 0; k < nb; k++ {
		if x := s.b[k] ^ t.b[k]; x != 0 {
			// Bits past position n-1 in the last byte may differ only
			// because one string ends there; they do not count.
			if i := k<<3 + mathbits.LeadingZeros8(x); i < n {
				return i
			}
			return -1
		}
	}
	return -1
}

// Compare orders bit strings lexicographically, with a proper prefix
// ordered before any of its extensions. It returns -1, 0 or +1.
func Compare(s, t String) int {
	if i := FirstDiff(s, t); i >= 0 {
		if t.Bit(i) {
			return -1
		}
		return 1
	}
	switch {
	case s.n < t.n:
		return -1
	case s.n > t.n:
		return 1
	}
	return 0
}

// Writer incrementally builds a bit string. The zero value is ready to use.
type Writer struct {
	b []byte
	n int
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(bit bool) {
	if w.n&7 == 0 {
		w.b = append(w.b, 0)
	}
	if bit {
		w.b[w.n>>3] |= 1 << (7 - uint(w.n&7))
	}
	w.n++
}

// WriteBits appends the n lowest bits of v, most significant of those
// first. It is the bulk form of WriteBit for encoders that assemble
// multi-bit patterns (doubled digits, separator pairs) in registers.
// When the buffer has eight bytes of room it stores all of them at once;
// the bytes past the written bits are zero and stay outside the string.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: WriteBits count %d out of range [0,64]", n))
	}
	if n == 0 {
		return
	}
	v <<= 64 - uint(n) // left-aligned, the bits above n dropped
	i, used := w.n>>3, uint(w.n&7)
	if used+uint(n) <= 64 && i+8 <= cap(w.b) {
		word := v >> used
		if used > 0 {
			word |= uint64(w.b[i]) << 56
		}
		binary.BigEndian.PutUint64(w.b[i:i+8], word)
		w.n += n
		w.b = w.b[:(w.n+7)>>3]
		return
	}
	for n > 0 {
		if w.n&7 == 0 {
			w.b = append(w.b, 0)
		}
		take := min(8-w.n&7, n)
		w.b[w.n>>3] |= byte(v>>56) >> uint(w.n&7)
		v <<= uint(take)
		w.n += take
		n -= take
	}
}

// WriteString appends all bits of s, whole bytes at a time.
func (w *Writer) WriteString(s String) {
	full := s.n >> 3
	for k := 0; k < full; k++ {
		w.WriteBits(uint64(s.b[k]), 8)
	}
	if rem := s.n & 7; rem > 0 {
		w.WriteBits(uint64(s.b[full]>>uint(8-rem)), rem)
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// String returns the accumulated bits. The writer remains usable; the
// returned value is an independent snapshot.
func (w *Writer) String() String {
	b := make([]byte, len(w.b))
	copy(b, w.b)
	return String{b: b, n: w.n}
}

// Reader consumes a bit string from the front.
type Reader struct {
	s   String
	pos int
}

// NewReader returns a reader over s.
func NewReader(s String) *Reader { return &Reader{s: s} }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.s.n {
		return false, errors.New("bits: read past end of string")
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b, nil
}

// Bin returns bin(x), the standard binary representation of the
// non-negative integer x with no leading zeros; bin(0) is the single bit 0.
func Bin(x int) String {
	if x < 0 {
		panic(fmt.Sprintf("bits.Bin: negative argument %d", x))
	}
	if x == 0 {
		return New("0")
	}
	hi := 0
	for 1<<(hi+1) <= x {
		hi++
	}
	var w Writer
	for i := hi; i >= 0; i-- {
		w.WriteBit(x&(1<<uint(i)) != 0)
	}
	return w.String()
}

// ParseBin inverts Bin. It accepts any non-empty bit string and interprets
// it as an unsigned binary number (leading zeros allowed, so it can parse
// substrings produced by other encoders too).
func ParseBin(s String) (int, error) {
	if s.n == 0 {
		return 0, errors.New("bits: empty string is not a number")
	}
	if s.n > 62 {
		return 0, fmt.Errorf("bits: number of %d bits overflows int", s.n)
	}
	x := 0
	for i := 0; i < s.n; i++ {
		x <<= 1
		if s.Bit(i) {
			x |= 1
		}
	}
	return x, nil
}

// Concat encodes the sequence of substrings (A1, ..., Ak) into a single
// self-delimiting binary string per Section 3 of the paper: every digit of
// every substring is doubled (0 -> 00, 1 -> 11) and the separator 01 is
// inserted between consecutive substrings. Decode inverts it exactly.
//
// Example: Concat((01), (00)) = 0011010000.
func Concat(parts ...String) String {
	n := 2 * max(len(parts)-1, 0) // separators
	for _, p := range parts {
		n += 2 * p.n
	}
	w := NewWriter(n)
	for i, p := range parts {
		if i > 0 {
			w.WriteBits(0b01, 2)
		}
		w.WriteDoubled(p)
	}
	return w.Take()
}

// NewWriter returns a writer whose buffer already holds n bits, so an
// encoder that computed its exact output length writes without
// reallocating.
func NewWriter(n int) Writer {
	return Writer{b: make([]byte, 0, (n+7)>>3)}
}

// WriterOn returns a writer whose output goes into buf's storage, from
// its start. A writer on a buffer with room for its output never
// allocates, so an encoder can carve many strings out of one buffer,
// each starting on a byte boundary and holding exactly its own bytes.
// The writer may store zeros in the room past its output, so the strings
// are written in buffer order.
func WriterOn(buf []byte) Writer { return Writer{b: buf[:0]} }

// Take returns the accumulated bits without String's copy and resets
// the writer to empty: the result owns the buffer, so an encoder that
// sized its writer with NewWriter allocates exactly once.
func (w *Writer) Take() String {
	s := String{b: w.b, n: w.n}
	*w = Writer{}
	return s
}

// Peek returns the accumulated bits without copying them: the result
// shares the writer's buffer and is valid until its next write or
// Reset.
func (w *Writer) Peek() String { return String{b: w.b, n: w.n} }

// Reset empties the writer but keeps its buffer, so an encoder that
// reuses one writer allocates only when an output outgrows all earlier
// ones.
func (w *Writer) Reset() { w.b, w.n = w.b[:0], 0 }

// doubled[b] is the 16-bit doubling of the byte b: every bit of b,
// most significant first, written twice.
var doubled = func() (t [256]uint16) {
	for b := 0; b < 256; b++ {
		var d uint16
		for i := 7; i >= 0; i-- {
			d = d<<2 | uint16(b>>uint(i)&1)*3
		}
		t[b] = d
	}
	return
}()

// WriteDoubled appends every bit of p twice — the digit-doubling half
// of the Concat code — one source byte (16 output bits) at a time.
// Advice strings are tens of megabits at the scales the oracle runs at,
// so the doubling pass is table-driven rather than per-bit.
func (w *Writer) WriteDoubled(p String) {
	full := p.n >> 3
	for k := 0; k < full; k++ {
		w.WriteBits(uint64(doubled[p.b[k]]), 16)
	}
	if rem := p.n & 7; rem > 0 {
		// The low rem source bits map to the low 2·rem doubled bits.
		w.WriteBits(uint64(doubled[p.b[full]>>uint(8-rem)]), 2*rem)
	}
}

// Decode inverts Concat, recovering the original sequence of substrings.
// It returns an error if s is not a valid encoding. Note that Concat of a
// single empty string and Concat of no strings both produce the empty
// encoding; Decode of the empty string returns a single empty part, which
// is the convention used by the advice codecs in this repository.
func Decode(s String) ([]String, error) {
	parts := []String{}
	var cur Writer
	i := 0
	for i < s.n {
		if i+1 >= s.n {
			return nil, errors.New("bits: dangling bit in doubled encoding")
		}
		a, b := s.Bit(i), s.Bit(i+1)
		switch {
		case a == b:
			cur.WriteBit(a)
		case !a && b: // 01: separator
			parts = append(parts, cur.String())
			cur = Writer{}
		default: // 10: invalid
			return nil, fmt.Errorf("bits: invalid pair 10 at offset %d", i)
		}
		i += 2
	}
	parts = append(parts, cur.String())
	return parts, nil
}

// ConcatInts encodes a sequence of non-negative integers as
// Concat(bin(x1), ..., bin(xk)). It is the flattening primitive used by
// the tree and trie codecs; the digits are written doubled directly
// instead of materializing one intermediate bin(x) string per integer
// (the advice tree alone flattens 4n+1 integers).
func ConcatInts(xs ...int) String {
	n := 2 * max(len(xs)-1, 0) // separators
	for _, x := range xs {
		n += 2 * BinLen(x)
	}
	w := NewWriter(n)
	for i, x := range xs {
		if i > 0 {
			w.WriteBits(0b01, 2)
		}
		w.WriteBinDoubled(x)
	}
	return w.Take()
}

// BinLen returns the length of bin(x) in bits; bin(0) is one bit long.
// A negative x is rejected by the writer that follows.
func BinLen(x int) int { return max(mathbits.Len(uint(x)), 1) }

// WriteBinDoubled appends bin(x) with every digit doubled — one term of
// the Concat code, written without materializing bin(x).
func (w *Writer) WriteBinDoubled(x int) { w.WriteBinRepeated(x, 2) }

// WriteBinRepeated appends bin(x) with every digit written k times
// (k = 2 is one application of the doubling code, k = 4 two nested
// applications — the depth-1 view encoder's case — and k = 8 three, an
// advice token of E1 or E2). For k = 2, 4 and 8 it writes four digits
// per WriteBits from a nibble-expansion table.
func (w *Writer) WriteBinRepeated(x, k int) {
	if x < 0 {
		panic(fmt.Sprintf("bits.Bin: negative argument %d", x))
	}
	digits := BinLen(x)
	if k == 2 || k == 4 || k == 8 {
		tab := &spread[mathbits.TrailingZeros(uint(k))]
		// The leading one to four digits, then four at a time.
		shift := (digits - 1) &^ 3
		w.WriteBits(uint64(tab[x>>uint(shift)]), (digits-shift)*k)
		for shift > 0 {
			shift -= 4
			w.WriteBits(uint64(tab[x>>uint(shift)&15]), 4*k)
		}
		return
	}
	ones := uint64(1)<<uint(k) - 1
	for i := digits - 1; i >= 0; i-- {
		w.WriteBits(ones*uint64(x>>uint(i)&1), k)
	}
}

// spread[t][v] is the nibble v with every bit written 2^t times: four
// digits of bin(x) for WriteBinRepeated(x, 2^t).
var spread = func() (tab [4][16]uint32) {
	for t := range tab {
		k := uint(1) << uint(t)
		for v := range tab[t] {
			for i := 3; i >= 0; i-- {
				tab[t][v] = tab[t][v]<<k | uint32(v>>uint(i)&1)*(1<<k-1)
			}
		}
	}
	return
}()

// DecodeInts inverts ConcatInts.
func DecodeInts(s String) ([]int, error) {
	parts, err := Decode(s)
	if err != nil {
		return nil, err
	}
	xs := make([]int, len(parts))
	for i, p := range parts {
		x, err := ParseBin(p)
		if err != nil {
			return nil, fmt.Errorf("bits: part %d: %w", i, err)
		}
		xs[i] = x
	}
	return xs, nil
}
