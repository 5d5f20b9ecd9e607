package election

// Metamorphic invariance tests (DESIGN.md §7): the oracle and the
// election pipeline are functions of the *anonymous* port-labeled
// graph, so everything they compute must be equivariant under a
// relabeling of the simulation ids — φ and the advice bit string are
// exactly invariant, the stable partition and the elected leader
// follow the relabeling. A per-node *port* permutation, by contrast,
// changes the anonymous structure itself (views encode port numbers:
// ShufflePorts turns the infeasible canonical torus into a feasible
// graph, which TestMetamorphicPortPermutation pins as a negative
// control), so the pinned invariant for port permutations is that the
// permuted instance again satisfies the full relabel-equivariance
// contract — its outcome depends only on its anonymous isomorphism
// class, never on the node numbering that happened to build it.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
)

// metamorphicFamilies is a representative cross-section of the
// feasible families, kept small enough to run every engine on every
// member under -race.
func metamorphicFamilies() map[string]*Graph {
	return map[string]*Graph{
		"hairy":       BuildHairyRing([]int{2, 0, 3, 1}).G,
		"necklace":    BuildNecklace(4, 3, 3, NecklaceCode(4, 3, 1)).G,
		"hk":          BuildHk(5, 3).G,
		"lollipop":    Lollipop(4, 3),
		"grid":        Grid(4, 3),
		"wheel-tail":  WheelWithTail(6, 3),
		"caterpillar": Caterpillar([]int{2, 0, 1, 3}),
		"random":      RandomConnected(30, 15, 11),
	}
}

// samePartitionUpTo checks that classes2 ∘ perm and classes1 induce the
// same partition of the nodes (class numbering is by first occurrence
// in node order, so the ids themselves legitimately differ).
func samePartitionUpTo(t *testing.T, label string, classes1, classes2, perm []int) {
	t.Helper()
	fwd := map[int]int{}
	bwd := map[int]int{}
	for v := range classes1 {
		c1, c2 := classes1[v], classes2[perm[v]]
		if c, ok := fwd[c1]; ok && c != c2 {
			t.Errorf("%s: class %d split by relabeling", label, c1)
			return
		}
		if c, ok := bwd[c2]; ok && c != c1 {
			t.Errorf("%s: class %d merged by relabeling", label, c2)
			return
		}
		fwd[c1], bwd[c2] = c2, c1
	}
}

// assertRelabelEquivariant pins the full contract on one instance: for
// a random node relabeling, φ, feasibility and the advice bit string
// are invariant; the stable partition, the elected leader (hence the
// leader's view class — at depth φ the classes are singletons tied to
// the node's view, and label 1 of the invariant advice names the same
// view on both sides) and every per-node output follow the relabeling —
// on the BSP, sequential and asynchronous engines.
func assertRelabelEquivariant(t *testing.T, name string, g *Graph, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.N())
	g2 := graph.RelabelNodes(g, perm)

	s1, s2 := NewSystem(), NewSystem()
	phi1, ok1 := s1.ElectionIndex(g)
	phi2, ok2 := s2.ElectionIndex(g2)
	if phi1 != phi2 || ok1 != ok2 {
		t.Errorf("%s: election index (%d,%v) changed to (%d,%v) under relabeling", name, phi1, ok1, phi2, ok2)
	}
	classes1, depth1 := s1.StablePartition(g)
	classes2, depth2 := s2.StablePartition(g2)
	if depth1 != depth2 {
		t.Errorf("%s: stabilization depth %d != %d", name, depth1, depth2)
	}
	samePartitionUpTo(t, name+"/stable-partition", classes1, classes2, perm)
	if !ok1 {
		return
	}

	_, enc1, err := s1.ComputeAdvice(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	_, enc2, err := s2.ComputeAdvice(g2)
	if err != nil {
		t.Fatalf("%s (relabeled): %v", name, err)
	}
	if !bits.Equal(enc1, enc2) {
		t.Errorf("%s: advice bit string not invariant under relabeling", name)
	}

	engines := map[string]Options{
		"bsp":           {},
		"seq":           {Realization: sequential{}},
		"async-uniform": {Realization: Async{Seed: seed}},
		"async-pareto":  {Realization: Async{Seed: seed, Delay: &ParetoDelay{}}},
	}
	for ename, o := range engines {
		r1, err := s1.RunMinTime(g, o)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, ename, err)
		}
		r2, err := s2.RunMinTime(g2, o)
		if err != nil {
			t.Fatalf("%s/%s (relabeled): %v", name, ename, err)
		}
		if r1.Time != r2.Time {
			t.Errorf("%s/%s: time %d != %d under relabeling", name, ename, r1.Time, r2.Time)
		}
		if r2.Leader != perm[r1.Leader] {
			t.Errorf("%s/%s: leader %d does not follow the relabeling of %d", name, ename, r2.Leader, r1.Leader)
		}
		for v := 0; v < g.N(); v++ {
			if r1.Rounds[v] != r2.Rounds[perm[v]] {
				t.Errorf("%s/%s: node %d decision round not equivariant", name, ename, v)
				break
			}
		}
		for v := 0; v < g.N(); v++ {
			// Port sequences are untouched by a node relabeling.
			if !reflect.DeepEqual(r1.Outputs[v], r2.Outputs[perm[v]]) {
				t.Errorf("%s/%s: node %d output not equivariant", name, ename, v)
				break
			}
		}
	}
}

func TestMetamorphicRelabelInvariance(t *testing.T) {
	for name, g := range metamorphicFamilies() {
		for seed := int64(0); seed < 2; seed++ {
			assertRelabelEquivariant(t, name, g, seed+1)
		}
	}
}

// TestMetamorphicPortPermutation: a per-node port permutation yields a
// *different* anonymous graph (negative control below), but the result
// on the permuted instance must again be a pure function of its
// anonymous structure — the full relabel-equivariance contract holds
// for every port-shuffled variant.
func TestMetamorphicPortPermutation(t *testing.T) {
	// Negative control: port numbering is semantically load-bearing.
	// The canonical torus is infeasible; a port shuffle of the same
	// topology is (generically) feasible, so "port permutation
	// preserves φ" would be a false invariant to pin.
	s := NewSystem()
	if s.Feasible(Torus(3, 4)) {
		t.Fatal("canonical torus unexpectedly feasible")
	}
	if !s.Feasible(ShufflePorts(Torus(3, 4), 1)) {
		t.Fatal("shuffled torus unexpectedly infeasible; pick another shuffle seed")
	}

	for name, g := range metamorphicFamilies() {
		for shuffle := int64(1); shuffle <= 2; shuffle++ {
			g2 := ShufflePorts(g, shuffle)
			assertRelabelEquivariant(t, name+"/shuffled", g2, shuffle)
		}
	}
}
