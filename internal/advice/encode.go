package advice

import (
	"errors"
	"fmt"

	"repro/internal/bits"
	"repro/internal/trie"
)

// Encode produces the advice bit string Adv = Concat(bin(φ), A1, A2) with
// A1 = Concat(bin(E1), bin(E2)) exactly as in Algorithm 5. The length of
// the result is the "size of advice" reported by every experiment.
func (a *Advice) Encode() bits.String {
	a1 := bits.Concat(
		bits.ConcatInts(a.E1.Tokens()...),
		bits.ConcatInts(a.E2.TokensE2()...),
	)
	a2 := encodeTree(a.Tree)
	return bits.Concat(bits.Bin(a.Phi), a1, a2)
}

// encodeTree serializes the labeled BFS tree A2 as a flat integer stream:
// the number of edges followed by the four integers of each edge. Its
// length is O(n log n) bits, matching Proposition 3.1's budget for bin(T).
func encodeTree(tree []LabeledTreeEdge) bits.String {
	tokens := make([]int, 0, 1+4*len(tree))
	tokens = append(tokens, len(tree))
	for _, e := range tree {
		tokens = append(tokens, e.ParentLabel, e.ChildLabel, e.PortParent, e.PortChild)
	}
	return bits.ConcatInts(tokens...)
}

func decodeTree(s bits.String) ([]LabeledTreeEdge, error) {
	tokens, err := bits.DecodeInts(s)
	if err != nil {
		return nil, err
	}
	if len(tokens) == 0 {
		return nil, errors.New("advice: empty tree stream")
	}
	n := tokens[0]
	if len(tokens) != 1+4*n {
		return nil, fmt.Errorf("advice: tree stream has %d tokens, want %d", len(tokens), 1+4*n)
	}
	tree := make([]LabeledTreeEdge, n)
	for i := 0; i < n; i++ {
		tree[i] = LabeledTreeEdge{
			ParentLabel: tokens[1+4*i],
			ChildLabel:  tokens[2+4*i],
			PortParent:  tokens[3+4*i],
			PortChild:   tokens[4+4*i],
		}
	}
	return tree, nil
}

// Decode inverts Encode: it is what each node runs on the received advice
// string at the start of Algorithm Elect.
func Decode(s bits.String) (*Advice, error) {
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

// Validate checks the structural well-formedness of decoded advice: the
// tree spans the labels {1..n} with root 1, every non-root label has
// exactly one parent, every path reaches the root, and all ports are
// non-negative. Corrupted bit strings that survive the doubling code are
// usually caught here. It runs in O(n): the edge checks fill a dense
// parent index and one classify pass follows every chain once.
func (a *Advice) Validate() error {
	n := len(a.Tree) + 1
	parent := make([]int32, n+1)
	for _, e := range a.Tree {
		switch {
		case e.ChildLabel < 1 || e.ChildLabel > n || e.ParentLabel < 1 || e.ParentLabel > n:
			return fmt.Errorf("advice: tree label out of range [1,%d]", n)
		case e.ChildLabel == 1:
			return errors.New("advice: root label 1 appears as a child")
		case e.PortParent < 0 || e.PortChild < 0:
			return errors.New("advice: negative port in tree")
		}
		if parent[e.ChildLabel] != 0 {
			return fmt.Errorf("advice: label %d has two parents", e.ChildLabel)
		}
		parent[e.ChildLabel] = int32(e.ParentLabel)
	}
	// n−1 edges with distinct children in {2..n}: every label but 1 has
	// exactly one parent, so no chain dead-ends and the one remaining
	// fault is a chain that never reaches 1.
	for _, d := range classify(parent)[2:] {
		if d == looping {
			return errors.New("advice: tree contains a cycle")
		}
	}
	return nil
}
