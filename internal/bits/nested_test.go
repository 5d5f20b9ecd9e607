package bits

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// nestedCase is a string of the advice's shape, Concat(bin(phi),
// Concat(ConcatInts(xs), ConcatInts(ys)), ConcatInts(zs)), as tokens.
type nestedCase struct {
	phi        int
	xs, ys, zs []int
}

func randomToken(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(2)
	case 1:
		return rng.Intn(300)
	case 2:
		return rng.Intn(1 << 20)
	}
	return int(rng.Int63n(1<<62-1) + 1)
}

func randomNested(rng *rand.Rand) nestedCase {
	list := func() []int {
		xs := make([]int, 1+rng.Intn(12))
		for i := range xs {
			xs[i] = randomToken(rng)
		}
		return xs
	}
	return nestedCase{phi: randomToken(rng), xs: list(), ys: list(), zs: list()}
}

// reference builds the string level by level, as the doubling code
// defines it.
func (c nestedCase) reference() String {
	return Concat(Bin(c.phi), Concat(ConcatInts(c.xs...), ConcatInts(c.ys...)), ConcatInts(c.zs...))
}

// TestNestedReaderReadsConcat pins NestedReader to the nested
// Concat/ConcatInts composition: a counting List finds every list's
// length and end, and Token and a filling List read the tokens back.
func TestNestedReaderReadsConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		c := randomNested(rng)
		s := c.reference()
		counter, r := NewNestedReader(s), NewNestedReader(s)
		counter.Token(1)
		if phi, end, err := r.Token(1); err != nil || phi != c.phi || end != 1 {
			t.Fatalf("%+v: Token(1) = %d, %d, %v", c, phi, end, err)
		}
		for _, l := range []struct {
			d, end int
			want   []int
		}{{3, 2, c.xs}, {3, 1, c.ys}, {2, 0, c.zs}} {
			n, end, err := counter.List(l.d, nil)
			if err != nil || n != len(l.want) || end != l.end {
				t.Fatalf("%+v: counting List(%d) = %d, %d, %v, want %d, %d", c, l.d, n, end, err, len(l.want), l.end)
			}
			got := make([]int, n)
			if k, end, err := r.List(l.d, got); err != nil || k != n || end != l.end || !slices.Equal(got, l.want) {
				t.Fatalf("%+v: List(%d) = %v, %d, %d, %v, want %v", c, l.d, got, k, end, err, l.want)
			}
			if counter.pos != r.pos {
				t.Fatalf("%+v: the counting List ends at %d, the filling one at %d", c, counter.pos, r.pos)
			}
		}
	}
}

// TestListCountsAsItReads: on every string and at every depth where a
// counting List accepts a list, a List into an array of the size it
// counted reads it with the same count, end and position. The strings
// are encodings with bits flipped, cut or inserted, read from the start
// of one of their parts, so List accepts many of them.
func TestListCountsAsItReads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	accepted := 0
	for range 3000 {
		enc := randomNested(rng).reference()
		// The start of each part: bin(φ), E1, E2 and A2.
		r := NewNestedReader(enc)
		r.Token(1)
		starts := []int{0, r.pos}
		r.List(3, nil)
		starts = append(starts, r.pos)
		r.List(3, nil)
		starts = append(starts, r.pos)
		from := starts[rng.Intn(len(starts))]
		text := []byte(enc.String())
		switch start := rng.Intn(len(text)); rng.Intn(3) {
		case 0:
			text[start] ^= '0' ^ '1'
		case 1:
			text = text[:start]
		default:
			text = slices.Insert(text, start, "0011"[rng.Intn(4)])
		}
		s := New(string(text[min(from, len(text)):]))
		for d := 1; d <= maxDepth; d++ {
			counter, r := NewNestedReader(s), NewNestedReader(s)
			n, wantEnd, err := counter.List(d, nil)
			if err != nil {
				continue
			}
			accepted++
			k, end, err := r.List(d, make([]int, n))
			if err != nil {
				t.Fatalf("%v at depth %d: the counting List accepts %d tokens, List into them: %v", s, d, n, err)
			}
			if k != n || end != wantEnd || r.pos != counter.pos {
				t.Fatalf("%v at depth %d: List reads %d ending %d at %d, counting %d ending %d at %d", s, d, k, end, r.pos, n, wantEnd, counter.pos)
			}
		}
	}
	if accepted < 1000 {
		t.Errorf("List accepted only %d lists", accepted)
	}
}

// TestNestedReaderRejects: every malformation is an error naming it.
func TestNestedReaderRejects(t *testing.T) {
	long := strings.Repeat("1111", 63)
	cases := []struct {
		bits string
		d    int
		want string
	}{
		{"0011", 1, "leading zero"},
		{"000011", 1, "leading zero"},
		{"00000000" + "11111111", 3, "leading zero"},
		{"10", 1, "invalid depth-1 symbol"},
		{"0010", 2, "invalid depth-2 symbol"},
		{"11110001", 2, "invalid depth-2 symbol"},
		{"111", 1, "string ends inside"},
		{"11111", 2, "string ends inside"},
		{"111111110000", 3, "string ends inside"},
		{"", 2, "empty token"},
		{"0011", 2, "empty token"},
		{long, 2, "more than 62 digits"},
	}
	for _, c := range cases {
		r := NewNestedReader(New(c.bits))
		_, _, err := r.Token(c.d)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Token(%d) of %q: error %v, want one containing %q", c.d, c.bits, err, c.want)
		}
	}
	r := NewNestedReader(New("1111" + "0011" + "1111"))
	if _, _, err := r.List(2, make([]int, 1)); err == nil || !strings.Contains(err.Error(), "more than 1 tokens") {
		t.Errorf("List into a short array: error %v", err)
	}
	for _, dst := range [][]int{nil, make([]int, 2)} {
		r = NewNestedReader(New("1111" + "0011"))
		if _, _, err := r.List(2, dst); err == nil || !strings.Contains(err.Error(), "empty token") {
			t.Errorf("List of a list with a trailing separator into %v: error %v", dst, err)
		}
	}
}

// TestTextAndBytesRoundTrip pins Parse and String, and FromBytes and
// AppendBytes, to each other and to the bit-at-a-time forms.
func TestTextAndBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 70; n++ {
		var text strings.Builder
		var w Writer
		for range n {
			bit := rng.Intn(2) == 1
			w.WriteBit(bit)
			if bit {
				text.WriteByte('1')
			} else {
				text.WriteByte('0')
			}
		}
		want := w.String()
		s, err := Parse(text.String())
		if err != nil || !Equal(s, want) {
			t.Fatalf("Parse(%q) = %v, %v", text.String(), s, err)
		}
		if got := s.String(); got != text.String() {
			t.Fatalf("String() = %q, want %q", got, text.String())
		}
		packed := s.AppendBytes([]byte{0xAB})
		if packed[0] != 0xAB || len(packed) != 1+(n+7)/8 {
			t.Fatalf("AppendBytes wrote %x", packed)
		}
		back, err := FromBytes(packed[1:], n)
		if err != nil || !Equal(back, want) {
			t.Fatalf("FromBytes(%x, %d) = %v, %v", packed[1:], n, back, err)
		}
		if n > 0 {
			packed[1] ^= 0xFF // FromBytes copied its input
			if !Equal(back, want) {
				t.Fatal("FromBytes shares its input")
			}
		}
	}
	for _, bad := range []string{"2", "01x", "0 1", "0é"} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "invalid character") {
			t.Errorf("Parse(%q): error %v", bad, err)
		}
	}
	for _, c := range []struct {
		data []byte
		n    int
	}{{[]byte{0x80}, 0}, {nil, 1}, {[]byte{0xC1}, 7}, {[]byte{0xFF, 0x01}, 15}, {nil, -1}} {
		if _, err := FromBytes(c.data, c.n); err == nil {
			t.Errorf("FromBytes(%x, %d) accepted", c.data, c.n)
		}
	}
}
