package election

// Property test for the oracle-equivalence contract (DESIGN.md §6): the
// class-sharing ComputeAdvice — one interned view per view class per
// depth, parallel trie construction, parallel label sweep — must
// produce bit-identical Encode() output to the Levels-based reference
// oracle on every graph family in the repository and on a seeded random
// sweep. CI runs this under -race, which also exercises the oracle's
// worker pool against the shared labeler.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/advice"
	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/view"
)

// checkOracleEquivalence runs both oracles on fresh tables and compares
// the encoded advice bit for bit (or requires both to fail).
func checkOracleEquivalence(t *testing.T, label string, g *Graph) {
	t.Helper()
	oNew := advice.NewOracle(view.NewTable())
	aNew, errNew := oNew.ComputeAdvice(g)
	oRef := advice.NewOracle(view.NewTable())
	aRef, errRef := oRef.ComputeAdviceReference(g)
	if (errNew == nil) != (errRef == nil) {
		t.Fatalf("%s: class-sharing err %v, reference err %v", label, errNew, errRef)
	}
	if errNew != nil {
		return
	}
	if aNew.Phi != aRef.Phi {
		t.Fatalf("%s: phi %d vs reference %d", label, aNew.Phi, aRef.Phi)
	}
	encNew, encRef := aNew.Encode(), aRef.Encode()
	if !bits.Equal(encNew, encRef) {
		t.Fatalf("%s: advice differs from reference (%d vs %d bits)", label, encNew.Len(), encRef.Len())
	}
}

// TestOracleEquivalenceOnFamilies covers one representative of every
// graph family in the repository — the paper's lower-bound
// constructions and every exported generator (infeasible members check
// that both oracles reject).
func TestOracleEquivalenceOnFamilies(t *testing.T) {
	for name, g := range equivalenceFamilies() {
		checkOracleEquivalence(t, name, g)
	}
}

// TestOracleEquivalenceRandomSweep is the seeded random sweep over
// varied sizes and densities.
func TestOracleEquivalenceRandomSweep(t *testing.T) {
	for _, n := range []int{10, 25, 60, 120} {
		for seed := int64(0); seed < 4; seed++ {
			g := RandomConnected(n, n/2+int(seed), seed)
			checkOracleEquivalence(t, fmt.Sprintf("random-n%d-s%d", n, seed), g)
		}
	}
}

// TestOracleEquivalenceDeep covers graphs deep enough that many groups
// of two or more sibling classes sit below depth 2, where the oracle
// ranks classes only among their siblings: relabeled grids (φ 7 to 19),
// a lollipop and a broom with long tails, and larger random graphs. The
// cases run in parallel, and their sizes keep the reference oracle
// within a few seconds under -race.
func TestOracleEquivalenceDeep(t *testing.T) {
	relabeled := func(w int, seed int64) *Graph {
		g := Grid(w, w+1)
		return graph.RelabelNodes(g, rand.New(rand.NewSource(seed)).Perm(g.N()))
	}
	cases := map[string]func() *Graph{
		"grid-40x41-s3": func() *Graph { return relabeled(40, 3) },
		"lollipop-6-40": func() *Graph { return Lollipop(6, 40) },
		"broom-4-30":    func() *Graph { return Broom(4, 30) },
	}
	for _, w := range []int{16, 24, 32} {
		for seed := range int64(3) {
			cases[fmt.Sprintf("grid-%dx%d-s%d", w, w+1, seed)] = func() *Graph { return relabeled(w, seed) }
		}
	}
	for _, n := range []int{5000, 7000} {
		cases[fmt.Sprintf("random-n%d", n)] = func() *Graph { return RandomConnected(n, n/2, 1) }
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkOracleEquivalence(t, name, g())
		})
	}
}

// TestOracleEquivalenceSharedTable runs both oracles against one shared
// interning table — the configuration RunMinTime uses when cross-checks
// intern into the same System — so memo sharing between them cannot
// change either output.
func TestOracleEquivalenceSharedTable(t *testing.T) {
	tab := view.NewTable()
	g := Lollipop(6, 5)
	o := advice.NewOracle(tab)
	aRef, err := o.ComputeAdviceReference(g)
	if err != nil {
		t.Fatal(err)
	}
	aNew, err := o.ComputeAdvice(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(aNew.Encode(), aRef.Encode()) {
		t.Fatal("shared-table oracle runs disagree")
	}
}
