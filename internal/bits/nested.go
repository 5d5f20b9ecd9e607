package bits

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
)

// A string of nested doubling codes, such as the advice string
// Concat(bin(φ), Concat(ConcatInts(E1...), ConcatInts(E2...)),
// ConcatInts(A2...)), is a sequence of tokens bin(x), each written at the
// nesting depth d of the list that holds it. Every digit of a token at
// depth d is 2^d equal bits, and the separator that ends one item of a
// depth-d list is 01 doubled d−1 times:
//
//	depth  digit                separator
//	1      00 / 11              01
//	2      0000 / 1111          0011
//	3      00000000 / 11111111  00001111
//
// A token is followed by the separator of its own depth when its list
// goes on, by the separator of a shallower depth when the enclosing list
// of that depth ends with it, or by the end of the string.

// maxDepth is the deepest nesting NestedReader handles.
const maxDepth = 3

// separator[d] is the separator of depth d, 2^d bits wide.
var separator = [maxDepth + 1]uint32{1: 0b01, 2: 0b0011, 3: 0b00001111}

// Kinds of the symbol a window starts; a separator also carries its
// depth, as symSep | depth<<2.
const (
	symBad = iota
	symZero
	symOne
	symSep
)

// symbols[d][v] is the kind of symbol that the window v of 2^d bits
// starts, read at a symbol boundary of a depth-d list: a digit, the
// separator of depth d, or a shallower separator given by its prefix.
// Every other window occurs in no string the doubling codes accept.
var symbols = func() (t [maxDepth + 1][256]uint8) {
	for d := 1; d <= maxDepth; d++ {
		width := uint(1) << uint(d)
		for v := 0; v < 1<<width; v++ {
			switch {
			case v == 0:
				t[d][v] = symZero
			case v == 1<<width-1:
				t[d][v] = symOne
			default:
				for l := d; l >= 1; l-- {
					if uint32(v>>(width-1<<uint(l))) == separator[l] {
						t[d][v] = symSep | uint8(l)<<2
						break
					}
				}
			}
		}
	}
	return
}()

// NestedReader reads the tokens of a string of nested doubling codes
// over 64-bit windows: a run of digits is found with one XOR and read
// off the window, and each separator takes one table lookup.
type NestedReader struct {
	s   String
	pos int
}

// NewNestedReader returns a reader at the start of s.
func NewNestedReader(s String) NestedReader { return NestedReader{s: s} }

// Token reads the token bin(x) at the reader's position, an item of a
// depth-d list, and the separator after it. It returns x and the depth
// of that separator: d when the list goes on, a shallower depth when the
// enclosing list of that depth ends with the token, and 0 at the end of
// the string. A window no doubling code writes there, a string that ends
// inside a symbol (an odd tail among them), an empty token, a token of
// more than 62 digits and a leading zero are errors, so a string is
// accepted only as the one encoding of its tokens.
func (r *NestedReader) Token(d int) (x, end int, err error) {
	var one [1]int
	_, end, err = r.tokens(d, one[:], true)
	return one[0], end, err
}

// List reads the tokens of a depth-d list, as Token does, up to the first
// separator of a shallower depth or the end of the string, into dst, and
// returns their number and the depth of that separator (0 at the end of
// the string). A list of more tokens than dst holds is an error. With a
// nil dst it checks and counts the tokens without storing them, so a
// decoder sizes its arrays with one pass of the same parser and fills
// them with a second.
func (r *NestedReader) List(d int, dst []int) (count, end int, err error) {
	return r.tokens(d, dst, false)
}

// tokens reads tokens at depth d into dst, or only counts them if dst is
// nil, until a separator of a shallower depth, or only the first token if
// single, keeping one 64-bit window across them. avail is the number of
// bits at the front of the window that lie in the string; the window is
// reloaded when fewer than a symbol's eight remain and the string goes
// on.
func (r *NestedReader) tokens(d int, dst []int, single bool) (count, end int, err error) {
	tab, same := &symbols[d], sameBits[d]
	width := uint(1) << uint(d)
	b, n, pos := r.s.b, r.s.n, r.pos
	var w uint64
	var avail uint
	x, digits := 0, uint(0)
	for {
		if avail < 8 && pos+int(avail) < n {
			w, avail = window(b, pos)
			avail = min(avail, uint(n-pos))
		}
		end = d
		if avail == 0 {
			end = 0 // the end of the string ends the token
			if digits == 0 {
				return 0, 0, fmt.Errorf("bits: empty token at offset %d", pos)
			}
		} else if k := min(uint(mathbits.LeadingZeros64((w^w>>1)&same))>>uint(d), avail>>uint(d)); k > 0 {
			// A run of digits at the front of w: symbols whose bits
			// are all equal, found by one XOR of each bit with its
			// predecessor.
			switch {
			case digits == 1 && x == 0:
				return 0, 0, fmt.Errorf("bits: token with a leading zero at offset %d", pos)
			case digits == 0 && k > 1 && w>>63 == 0:
				return 0, 0, fmt.Errorf("bits: token with a leading zero at offset %d", pos+int(width))
			case digits+k > 62:
				return 0, 0, fmt.Errorf("bits: token of more than 62 digits at offset %d", pos+int((62-digits)*width))
			}
			for range k {
				x = x<<1 | int(w>>63)
				w <<= width
			}
			digits += k
			pos += int(k * width)
			avail -= k * width
			continue
		} else {
			// Not a digit, as a digit would have made a run: a
			// separator, an invalid window, or a symbol the string's
			// end cuts.
			win := w >> (64 - width)
			sym := tab[win]
			ws := width
			if sym > symOne {
				ws = 1 << (sym >> 2)
			}
			switch {
			case ws > avail:
				return 0, 0, fmt.Errorf("bits: string ends inside a %d-bit symbol at offset %d", ws, pos)
			case sym == symBad:
				return 0, 0, fmt.Errorf("bits: invalid depth-%d symbol %0*b at offset %d", d, width, win, pos)
			case digits == 0:
				return 0, 0, fmt.Errorf("bits: empty token at offset %d", pos)
			}
			end = int(sym >> 2)
			pos += int(ws)
			w <<= ws
			avail -= ws
		}
		if dst != nil {
			if count == len(dst) {
				return 0, 0, fmt.Errorf("bits: list of more than %d tokens", len(dst))
			}
			dst[count] = x
		}
		count++
		if single || end < d {
			r.pos = pos
			return count, end, nil
		}
		x, digits = 0, 0
	}
}

// sameBits[d] selects the bits below the first of each 2^d-bit symbol
// of a word, so (w ^ w>>1) & sameBits[d] is zero exactly on the symbols
// of w whose bits are all equal, the digits.
var sameBits = [maxDepth + 1]uint64{1: 0x5555555555555555, 2: 0x7777777777777777, 3: 0x7F7F7F7F7F7F7F7F}

// window returns the bits of b from bit pos on, left-aligned, zero past
// the end of b, and how many of them it holds: at least 57 unless b ends
// sooner.
func window(b []byte, pos int) (uint64, uint) {
	i, sh := pos>>3, uint(pos&7)
	if i+8 <= len(b) {
		return binary.BigEndian.Uint64(b[i:]) << sh, 64 - sh
	}
	var v uint64
	for k, c := range b[i:] {
		v |= uint64(c) << (56 - 8*uint(k))
	}
	return v << sh, 8*uint(len(b)-i) - sh
}
