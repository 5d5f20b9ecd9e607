package election

// Native fuzz targets (DESIGN.md §7). A fuzzer byte string decodes to a
// small connected port-labeled graph plus a delay seed — the first byte
// selects a construction family, the rest parameterize it — so the
// committed corpus (testdata/fuzz/...) covers every family shape while
// the mutator explores sizes, codes, shuffles and schedules.
//
//	FuzzElectionConformance: the part and view engines must agree on
//	φ/feasibility, and the BSP, sequential and asynchronous engines
//	must elect identically on every instance.
//	FuzzAdviceRoundTrip: the oracle's advice equals the view-based
//	reference's bit for bit, Encode∘Decode is the identity on it, and
//	Decode never panics on arbitrary bit strings.
//	FuzzElectLabelsVsViews: Algorithm Elect on labels (sim.RunBSP) and
//	on views (sim.RunSequential) produce the same result, or the same
//	round-budget failure, under arbitrary decodable advice.

import (
	"reflect"
	"testing"

	"repro/internal/advice"
	"repro/internal/bits"
	"repro/internal/view"
)

// byteGraph builds a connected simple graph on n nodes directly from
// fuzzer bytes: a spanning tree (each node's parent picked by a byte)
// plus byte-picked extra edges, with ports assigned per node in edge
// insertion order — always a valid port labeling.
func byteGraph(n int, data []byte) *Graph {
	type edge struct{ u, v int }
	seen := map[edge]bool{}
	var edges []edge
	add := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[edge{u, v}] {
			return
		}
		seen[edge{u, v}] = true
		edges = append(edges, edge{u, v})
	}
	next := func(i int) int {
		if len(data) == 0 {
			return 7 * (i + 1)
		}
		return int(data[i%len(data)]) + i
	}
	for v := 1; v < n; v++ {
		add(next(v)%v, v)
	}
	extras := n / 2
	for i := 0; i < extras; i++ {
		add(next(2*i+n)%n, next(2*i+n+1)%n)
	}
	b := NewBuilder(n)
	ports := make([]int, n)
	for _, e := range edges {
		b.AddEdge(e.u, ports[e.u], e.v, ports[e.v])
		ports[e.u]++
		ports[e.v]++
	}
	g, err := b.Finalize()
	if err != nil {
		return nil // unreachable by construction; reject defensively
	}
	return g
}

// decodeFuzzGraph maps a fuzzer byte string to (graph, delay seed), or
// nil to reject the input. Every branch keeps its parameters inside
// the constructors' documented ranges so no input can panic.
func decodeFuzzGraph(data []byte) (*Graph, int64) {
	if len(data) < 2 {
		return nil, 0
	}
	kind, b1 := int(data[0])%12, int(data[1])
	seed := int64(b1)
	arg := func(i int) int {
		if 2+i < len(data) {
			return int(data[2+i])
		}
		return i + 1
	}
	switch kind {
	case 0:
		return byteGraph(3+arg(0)%10, data[2:]), seed
	case 1:
		return Lollipop(3+arg(0)%3, 1+arg(1)%3), seed
	case 2:
		sizes := make([]int, 3+arg(0)%4)
		for i := range sizes {
			sizes[i] = arg(i+1) % 4
		}
		max := 0
		for _, k := range sizes {
			if k > max {
				max = k
			}
		}
		sizes[arg(0)%len(sizes)] = max + 1 // unique maximum: feasibility
		return BuildHairyRing(sizes).G, seed
	case 3:
		return BuildNecklace(4, 3, 2+arg(0)%2, NecklaceCode(4, 3, arg(1)%NecklaceCodeCount(4, 3))).G, seed
	case 4:
		return BuildHk(3+arg(0)%3, 3).G, seed
	case 5:
		return Grid(2+arg(0)%3, 2+arg(1)%3), seed
	case 6:
		legs := make([]int, 2+arg(0)%4)
		for i := range legs {
			legs[i] = arg(i+1) % 3
		}
		return Caterpillar(legs), seed
	case 7:
		return WheelWithTail(3+arg(0)%4, 1+arg(1)%3), seed
	case 8:
		return Broom(2+arg(0)%3, 1+arg(1)%3), seed
	case 9:
		return ShufflePorts(Torus(3, 3+arg(0)%2), int64(arg(1))), seed
	case 10:
		return ShufflePorts(Hypercube(2+arg(0)%2), int64(arg(1))), seed
	case 11:
		return BuildS0Member(1, 2, arg(0)%3).G, seed
	}
	return nil, 0
}

// fuzzSeedGraphs is one representative of every decoder family, the
// same instances the committed corpus files pin.
func fuzzSeedGraphs() [][]byte {
	var seeds [][]byte
	for kind := byte('0'); kind <= ';'; kind++ { // ':' and ';' are kinds 10 and 11
		seeds = append(seeds, []byte{kind, '1', '2', '3', '4', '5'})
	}
	return seeds
}

// fuzzSeeds registers the seed graphs.
func fuzzSeeds(f *testing.F) {
	for _, data := range fuzzSeedGraphs() {
		f.Add(data)
	}
}

// fuzzBits reads a bit string from fuzzer bytes: data[1:] packed most
// significant bit first, less the last data[0] mod 8 bits of the last
// byte. packFuzzBits is its inverse.
func fuzzBits(data []byte) bits.String {
	var w bits.Writer
	if len(data) == 0 {
		return w.String()
	}
	body := data[1:]
	for i, b := range body {
		k := 8
		if i == len(body)-1 {
			k -= int(data[0] % 8)
		}
		w.WriteBits(uint64(b>>(8-k)), k)
	}
	return w.String()
}

func packFuzzBits(s bits.String) []byte {
	out := make([]byte, 1+(s.Len()+7)/8)
	out[0] = byte((8 - s.Len()%8) % 8)
	for i := 0; i < s.Len(); i++ {
		if s.Bit(i) {
			out[1+i/8] |= 0x80 >> (i % 8)
		}
	}
	return out
}

func FuzzElectionConformance(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, seed := decodeFuzzGraph(data)
		if g == nil || g.N() > 64 {
			return
		}
		sPart := NewSystem()
		phi1, ok1 := sPart.ElectionIndex(g)
		phi2, ok2 := view.ElectionIndex(view.NewTable(), g)
		if phi1 != phi2 || ok1 != ok2 {
			t.Fatalf("engines disagree on the election index: part (%d,%v) vs view (%d,%v)", phi1, ok1, phi2, ok2)
		}
		if !ok1 || g.N() < 3 {
			return
		}
		_, enc, err := sPart.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("ComputeAdvice: %v", err)
		}
		ref, err := sPart.RunElect(g, enc, Options{})
		if err != nil {
			t.Fatalf("bsp: %v", err)
		}
		if ref.Time != phi1 {
			t.Fatalf("min-time election took %d rounds, φ = %d", ref.Time, phi1)
		}
		inCut := make([]bool, g.N())
		for v := 0; v < g.N()/2; v++ {
			inCut[v] = true
		}
		for name, o := range map[string]Options{
			"seq":           {Realization: sequential{}},
			"async-uniform": {Realization: Async{Seed: seed}},
			"async-slowcut": {Realization: Async{Seed: seed, Delay: NewSlowCutDelay(inCut, 9, 0.1)}},
		} {
			res, err := sPart.RunElect(g, enc, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameElection(t, name, ref, res)
		}
	})
}

func FuzzAdviceRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must tolerate arbitrary bit strings without panicking
		// (errors are the expected outcome).
		var w bits.Writer
		for _, b := range data {
			w.WriteBits(uint64(b), 8)
		}
		_, _ = advice.Decode(w.String())

		g, _ := decodeFuzzGraph(data)
		if g == nil || g.N() < 3 || g.N() > 64 {
			return
		}
		s := NewSystem()
		if !s.Feasible(g) {
			return
		}
		a, enc, err := s.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("ComputeAdvice: %v", err)
		}
		ref, err := advice.NewOracle(view.NewTable()).ComputeAdviceReference(g)
		if err != nil {
			t.Fatalf("ComputeAdviceReference: %v", err)
		}
		if re := ref.Encode(); !bits.Equal(re, enc) {
			t.Fatalf("advice differs from the reference: %d bits vs %d", enc.Len(), re.Len())
		}
		dec, err := advice.Decode(enc)
		if err != nil {
			t.Fatalf("Decode of fresh advice: %v", err)
		}
		if dec.Phi != a.Phi {
			t.Fatalf("round trip changed φ: %d -> %d", a.Phi, dec.Phi)
		}
		if !reflect.DeepEqual(dec.Tree, a.Tree) {
			t.Fatal("round trip changed the advice tree")
		}
		if re := dec.Encode(); !bits.Equal(re, enc) {
			t.Fatalf("re-encode differs: %d bits vs %d", re.Len(), enc.Len())
		}
	})
}

func FuzzElectLabelsVsViews(f *testing.F) {
	s := NewSystem()
	for _, data := range fuzzSeedGraphs() {
		g, _ := decodeFuzzGraph(data)
		if g == nil || g.N() < 3 || !s.Feasible(g) {
			continue
		}
		a, enc, err := s.ComputeAdvice(g)
		if err != nil {
			f.Fatal(err)
		}
		// Its own advice, the same advice with a φ past every round
		// budget, and the advice of a port-shuffled copy.
		f.Add(data, packFuzzBits(enc))
		huge := &Advice{Phi: 1 << 40, E1: a.E1, E2: a.E2, Tree: a.Tree}
		f.Add(data, packFuzzBits(huge.Encode()))
		if sh := ShufflePorts(g, 1); s.Feasible(sh) {
			_, enc, err := s.ComputeAdvice(sh)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data, packFuzzBits(enc))
		}
	}
	f.Fuzz(func(t *testing.T, data, advBits []byte) {
		g, _ := decodeFuzzGraph(data)
		if g == nil || g.N() > 64 {
			return
		}
		adv, err := advice.Decode(fuzzBits(advBits))
		if err != nil {
			return
		}
		requireLabelsMatchViews(t, "fuzz", g, adv)
	})
}

// decodeFuzzGraph must itself be total on the corpus shapes: every
// family kind yields a valid graph for a spread of parameter bytes.
func TestFuzzDecoderTotal(t *testing.T) {
	for kind := 0; kind < 12; kind++ {
		for b := 0; b < 256; b += 17 {
			data := []byte{byte(kind), byte(b), byte(b / 2), byte(255 - b), byte(b), byte(3 * b)}
			g, _ := decodeFuzzGraph(data)
			if g == nil {
				t.Fatalf("kind %d rejected bytes %v", kind, data)
			}
			if !g.Connected() {
				t.Fatalf("kind %d built a disconnected graph", kind)
			}
		}
	}
}
