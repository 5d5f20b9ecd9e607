package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndString(t *testing.T) {
	cases := []string{"", "0", "1", "01", "10", "0011010000", "101010101010101"}
	for _, c := range cases {
		if got := New(c).String(); got != c {
			t.Errorf("New(%q).String() = %q", c, got)
		}
		if got := New(c).Len(); got != len(c) {
			t.Errorf("New(%q).Len() = %d, want %d", c, got, len(c))
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid character")
		}
	}()
	New("01x")
}

func TestBit(t *testing.T) {
	s := New("10110")
	want := []bool{true, false, true, true, false}
	for i, w := range want {
		if s.Bit(i) != w {
			t.Errorf("Bit(%d) = %v, want %v", i, s.Bit(i), w)
		}
	}
}

func TestBit1(t *testing.T) {
	s := New("10110")
	if !s.Bit1(1) {
		t.Error("Bit1(1) should be true (first bit)")
	}
	if s.Bit1(2) {
		t.Error("Bit1(2) should be false")
	}
	if s.Bit1(6) {
		t.Error("Bit1 out of range should be false")
	}
	if s.Bit1(0) {
		t.Error("Bit1(0) should be false")
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("01").Bit(2)
}

func TestEqual(t *testing.T) {
	if !Equal(New("0101"), New("0101")) {
		t.Error("equal strings reported unequal")
	}
	if Equal(New("0101"), New("0100")) {
		t.Error("different strings reported equal")
	}
	if Equal(New("010"), New("0101")) {
		t.Error("different lengths reported equal")
	}
	if !Equal(String{}, New("")) {
		t.Error("empty strings should be equal")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "0", -1},
		{"0", "", 1},
		{"0", "1", -1},
		{"1", "0", 1},
		{"01", "010", -1},
		{"011", "0110", -1},
		{"10", "01", 1},
		{"0101", "0101", 0},
	}
	for _, c := range cases {
		if got := Compare(New(c.a), New(c.b)); got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func() String {
		var w Writer
		n := rng.Intn(12)
		for i := 0; i < n; i++ {
			w.WriteBit(rng.Intn(2) == 1)
		}
		return w.String()
	}
	for i := 0; i < 500; i++ {
		a, b, c := randStr(), randStr(), randStr()
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated for %v, %v, %v", a, b, c)
		}
		if (Compare(a, b) == 0) != Equal(a, b) {
			t.Fatalf("Compare==0 disagrees with Equal for %v, %v", a, b)
		}
	}
}

func TestWriterString(t *testing.T) {
	var w Writer
	w.WriteString(New("101"))
	w.WriteString(New("01"))
	if got := w.String().String(); got != "10101" {
		t.Errorf("writer produced %q", got)
	}
	// The snapshot must be independent of further writes.
	snap := w.String()
	w.WriteBit(true)
	if snap.Len() != 5 {
		t.Error("snapshot mutated by later write")
	}
}

func TestBin(t *testing.T) {
	cases := []struct {
		x    int
		want string
	}{
		{0, "0"}, {1, "1"}, {2, "10"}, {3, "11"}, {4, "100"},
		{10, "1010"}, {255, "11111111"}, {256, "100000000"},
	}
	for _, c := range cases {
		if got := Bin(c.x).String(); got != c.want {
			t.Errorf("Bin(%d) = %q, want %q", c.x, got, c.want)
		}
	}
}

func TestBinPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Bin(-1)
}

func TestParseBinRoundTrip(t *testing.T) {
	f := func(x uint16) bool {
		got, err := ParseBin(Bin(int(x)))
		return err == nil && got == int(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseBinErrors(t *testing.T) {
	if _, err := ParseBin(String{}); err == nil {
		t.Error("expected error for empty string")
	}
	var w Writer
	for i := 0; i < 63; i++ {
		w.WriteBit(true)
	}
	if _, err := ParseBin(w.String()); err == nil {
		t.Error("expected overflow error")
	}
}

func TestConcatPaperExample(t *testing.T) {
	// Concat((01), (00)) = (0011010000) — the example from Section 3.
	got := Concat(New("01"), New("00"))
	if got.String() != "0011010000" {
		t.Errorf("Concat paper example = %q, want 0011010000", got)
	}
}

func TestConcatDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(6)
		parts := make([]String, k)
		for i := range parts {
			var w Writer
			n := rng.Intn(10)
			for j := 0; j < n; j++ {
				w.WriteBit(rng.Intn(2) == 1)
			}
			parts[i] = w.String()
		}
		enc := Concat(parts...)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode error: %v", err)
		}
		if len(dec) != k {
			t.Fatalf("Decode returned %d parts, want %d", len(dec), k)
		}
		for i := range parts {
			if !Equal(dec[i], parts[i]) {
				t.Fatalf("part %d mismatch: got %v want %v", i, dec[i], parts[i])
			}
		}
	}
}

func TestConcatSizeOverhead(t *testing.T) {
	// The doubling code at most doubles the payload and adds 2 bits per
	// separator — the constant-factor claim used by Proposition 3.1 etc.
	parts := []String{New("10101"), New("111"), New("")}
	enc := Concat(parts...)
	payload := 0
	for _, p := range parts {
		payload += p.Len()
	}
	want := 2*payload + 2*(len(parts)-1)
	if enc.Len() != want {
		t.Errorf("encoded length %d, want %d", enc.Len(), want)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(New("001")); err == nil {
		t.Error("expected error for odd-length tail")
	}
	if _, err := Decode(New("10")); err == nil {
		t.Error("expected error for pair 10")
	}
}

func TestDecodeEmpty(t *testing.T) {
	dec, err := Decode(String{})
	if err != nil || len(dec) != 1 || dec[0].Len() != 0 {
		t.Errorf("Decode(empty) = %v, %v; want single empty part", dec, err)
	}
}

func TestConcatIntsRoundTrip(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xs := []int{int(a), int(b), int(c)}
		got, err := DecodeInts(ConcatInts(xs...))
		if err != nil || len(got) != 3 {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReader(t *testing.T) {
	r := NewReader(New("101"))
	for i, want := range []bool{true, false, true} {
		got, err := r.ReadBit()
		if err != nil || got != want {
			t.Fatalf("bit %d: got %v, %v", i, got, err)
		}
	}
	if r.Remaining() != 0 {
		t.Error("remaining should be 0")
	}
	if _, err := r.ReadBit(); err == nil {
		t.Error("expected error past end")
	}
}

// Fuzz-ish robustness: Decode and DecodeInts must never panic on
// arbitrary bit strings — they either round-trip or return an error.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		var w Writer
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			w.WriteBit(rng.Intn(2) == 1)
		}
		s := w.String()
		if parts, err := Decode(s); err == nil {
			// Valid decodes must re-encode to the original string.
			if !Equal(Concat(parts...), s) {
				t.Fatalf("Decode/Concat not inverse on %v", s)
			}
		}
		_, _ = DecodeInts(s)
	}
}

// writers returns a zero Writer, a presized one, and one on a buffer of
// stale bytes: WriteBits stores eight bytes at once only where the
// buffer has the room.
func writers(n int) []Writer {
	stale := make([]byte, (n+7)>>3+8)
	for i := range stale {
		stale[i] = 0xA5
	}
	return []Writer{{}, NewWriter(n), WriterOn(stale)}
}

// WriteBits must agree with writing the same bits one at a time, at
// every alignment of the writer.
func TestWriteBitsMatchesWriteBit(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	for align := 0; align < 9; align++ {
		for n := 0; n <= 64; n++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			v := rng
			for kind, fast := range writers(align + n + 1) {
				var slow Writer
				for i := 0; i < align; i++ {
					fast.WriteBit(i%2 == 0)
					slow.WriteBit(i%2 == 0)
				}
				fast.WriteBits(v, n)
				fast.WriteBit(true)
				for i := n - 1; i >= 0; i-- {
					slow.WriteBit(v>>uint(i)&1 == 1)
				}
				slow.WriteBit(true)
				if !Equal(fast.String(), slow.String()) {
					t.Fatalf("writer %d, align %d n %d: WriteBits disagrees with WriteBit", kind, align, n)
				}
			}
		}
	}
}

// WriteBinRepeated must agree with writing each digit of bin(x) k times,
// at every alignment of the writer.
func TestWriteBinRepeatedMatchesDigits(t *testing.T) {
	xs := []int{0, 1, 2, 5, 15, 16, 17, 255, 256, 1<<20 + 3, 1<<62 - 1}
	for _, k := range []int{1, 2, 3, 4, 8} {
		for align := 0; align < 8; align++ {
			for _, x := range xs {
				for kind, fast := range writers(align + k*BinLen(x)) {
					var slow Writer
					for i := 0; i < align; i++ {
						fast.WriteBit(i%3 == 0)
						slow.WriteBit(i%3 == 0)
					}
					fast.WriteBinRepeated(x, k)
					for _, digit := range Bin(x).String() {
						for range k {
							slow.WriteBit(digit == '1')
						}
					}
					if !Equal(fast.String(), slow.String()) {
						t.Fatalf("writer %d, k %d, align %d, x %d: %v, want %v", kind, k, align, x, fast.String(), slow.String())
					}
				}
			}
		}
	}
}

// The table-driven doubling of Concat, the direct-write ConcatInts, and
// the chunked WriteString must agree with their bit-by-bit definitions.
func TestFastEncodersMatchReference(t *testing.T) {
	samples := []String{
		New(""), New("0"), New("1"), New("01"), New("10011010"),
		New("111000111000111"), Bin(0), Bin(255), Bin(1 << 40),
	}
	// Concat vs doubling by hand.
	ref := func(parts ...String) String {
		var w Writer
		for i, p := range parts {
			if i > 0 {
				w.WriteBit(false)
				w.WriteBit(true)
			}
			for j := 0; j < p.Len(); j++ {
				b := p.Bit(j)
				w.WriteBit(b)
				w.WriteBit(b)
			}
		}
		return w.String()
	}
	for i := range samples {
		for j := range samples {
			got, want := Concat(samples[i], samples[j]), ref(samples[i], samples[j])
			if !Equal(got, want) {
				t.Fatalf("Concat(%v, %v) = %v, want %v", samples[i], samples[j], got, want)
			}
		}
	}
	// ConcatInts vs Concat of Bins.
	intCases := [][]int{{}, {0}, {1}, {0, 0}, {5, 0, 17}, {1023, 1, 0, 8}, {1 << 50}}
	for _, xs := range intCases {
		parts := make([]String, len(xs))
		for i, x := range xs {
			parts[i] = Bin(x)
		}
		if !Equal(ConcatInts(xs...), Concat(parts...)) {
			t.Fatalf("ConcatInts(%v) differs from Concat of Bins", xs)
		}
	}
	// WriteString at every alignment.
	for align := 0; align < 9; align++ {
		for _, s := range samples {
			var fast, slow Writer
			for i := 0; i < align; i++ {
				fast.WriteBit(true)
				slow.WriteBit(true)
			}
			fast.WriteString(s)
			for i := 0; i < s.Len(); i++ {
				slow.WriteBit(s.Bit(i))
			}
			if !Equal(fast.String(), slow.String()) {
				t.Fatalf("WriteString misaligned at %d for %v", align, s)
			}
		}
	}
	// Round trip through Decode still holds. (The empty sequence is
	// excluded: its encoding decodes as one empty part, which ParseBin
	// rejects — longstanding codec behaviour.)
	for _, xs := range intCases {
		if len(xs) == 0 {
			continue
		}
		got, err := DecodeInts(ConcatInts(xs...))
		if err != nil {
			t.Fatalf("DecodeInts(%v): %v", xs, err)
		}
		if len(got) != len(xs) {
			t.Fatalf("round trip of %v: got %v", xs, got)
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("round trip of %v: got %v", xs, got)
			}
		}
	}
}

// FirstDiff must agree with a bit-by-bit scan of the common prefix.
func TestFirstDiff(t *testing.T) {
	samples := []String{
		New(""), New("0"), New("1"), New("0110"), New("01101"),
		New("011010000111"), New("011010000110"), New("11110000111100001"),
		New("1111000011110000"), Bin(123456789),
	}
	for _, s := range samples {
		for _, u := range samples {
			want := -1
			n := s.Len()
			if u.Len() < n {
				n = u.Len()
			}
			for i := 0; i < n; i++ {
				if s.Bit(i) != u.Bit(i) {
					want = i
					break
				}
			}
			if got := FirstDiff(s, u); got != want {
				t.Errorf("FirstDiff(%v, %v) = %d, want %d", s, u, got, want)
			}
		}
	}
}
