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
//
// bin(E1) and bin(E2) are the token streams of trie.Tokens and
// trie.TokensE2, and A2 is the tree stream (the number of edges, then
// four integers per edge), each flattened by ConcatInts. Encode writes
// every token directly at its nesting depth: each digit of φ is 2 bits,
// of an E1 or E2 token 8 bits and of an A2 token 4 bits, and the
// separators are 01 (the top level), 0011 (between E1 and E2 in A1, and
// between A2's tokens) and 00001111 (between E1's or E2's tokens). It
// reads the tokens straight off the trie nodes and tree edges, after a
// length walk over the same tokens, into one buffer allocated once.
func (a *Advice) Encode() bits.String {
	w := bits.NewWriter(a.encodedLen())
	w.WriteBinRepeated(a.Phi, 2)
	w.WriteBits(0b01, 2)
	writeTrie(&w, a.E1)
	w.WriteBits(0b0011, 4)
	w.WriteBinRepeated(len(a.E2), 8)
	for _, l := range a.E2 {
		writeToken(&w, l.Depth)
		writeToken(&w, len(l.Couples))
		for _, c := range l.Couples {
			writeToken(&w, c.J)
			w.WriteBits(0b00001111, 8)
			writeTrie(&w, c.T)
		}
	}
	w.WriteBits(0b01, 2)
	w.WriteBinRepeated(len(a.Tree), 4)
	for _, e := range a.Tree {
		for _, x := range [4]int{e.ParentLabel, e.ChildLabel, e.PortParent, e.PortChild} {
			w.WriteBits(0b0011, 4)
			w.WriteBinRepeated(x, 4)
		}
	}
	return w.Take()
}

// writeToken writes the separator and then the token x of an E2 list.
func writeToken(w *bits.Writer, x int) {
	w.WriteBits(0b00001111, 8)
	w.WriteBinRepeated(x, 8)
}

// writeTrie writes the token stream of t, as a list item of E1 or E2: a
// leaf is 0, an internal node 1, a, b, all in preorder.
func writeTrie(w *bits.Writer, t trie.Trie) {
	for i := range t.Size() {
		if i > 0 {
			w.WriteBits(0b00001111, 8)
		}
		qa, qb, leaf := t.Node(i)
		if leaf {
			w.WriteBinRepeated(0, 8)
			continue
		}
		w.WriteBinRepeated(1, 8)
		writeToken(w, int(qa))
		writeToken(w, int(qb))
	}
}

// encodedLen is the length of Encode's output: 2^d bits for every digit
// and every separator of a depth-d token, less the one separator a list
// does not end with, plus the separators between its lists.
func (a *Advice) encodedLen() int {
	digits, tokens := trieDigits(a.E1)
	e2Digits, e2Tokens := bits.BinLen(len(a.E2)), 1
	for _, l := range a.E2 {
		e2Digits += bits.BinLen(l.Depth) + bits.BinLen(len(l.Couples))
		e2Tokens += 2
		for _, c := range l.Couples {
			d, k := trieDigits(c.T)
			e2Digits += bits.BinLen(c.J) + d
			e2Tokens += 1 + k
		}
	}
	treeDigits := bits.BinLen(len(a.Tree))
	for _, e := range a.Tree {
		treeDigits += bits.BinLen(e.ParentLabel) + bits.BinLen(e.ChildLabel) +
			bits.BinLen(e.PortParent) + bits.BinLen(e.PortChild)
	}
	return 2*bits.BinLen(a.Phi) + 2 +
		8*(digits+tokens-1) + 4 + 8*(e2Digits+e2Tokens-1) + 2 +
		4*(treeDigits+4*len(a.Tree))
}

// trieDigits returns the number of digits and of tokens in the token
// stream of t.
func trieDigits(t trie.Trie) (digits, tokens int) {
	for i := range t.Size() {
		qa, qb, leaf := t.Node(i)
		if leaf {
			digits++
			tokens++
			continue
		}
		digits += 1 + bits.BinLen(int(qa)) + bits.BinLen(int(qb))
		tokens += 3
	}
	return digits, tokens
}

// The token lists of an advice string, in the order they appear.
const (
	listE1 = iota
	listE2
	listA2
)

// readTokens reads the layout Encode writes, all three nesting levels in
// one pass: bin(φ), then the tokens of E1 and of E2 at depth 3 into
// lists[listE1] and lists[listE2], then those of A2 at depth 2 into
// lists[listA2]. It returns φ and the number of tokens in each list.
// With nil lists it only checks and counts the tokens, so Decode sizes
// the lists with one call and fills them with a second.
func readTokens(s bits.String, lists [3][]int) (phi int, count [3]int, err error) {
	r := bits.NewNestedReader(s)
	phi, end, err := r.Token(1)
	switch {
	case err != nil:
		return 0, count, fmt.Errorf("advice: bad φ: %w", err)
	case end == 0:
		return 0, count, errors.New("advice: top level has 1 part, want 3")
	case phi < 1:
		return 0, count, fmt.Errorf("advice: phi = %d < 1", phi)
	}
	count[listE1], end, err = r.List(3, lists[listE1])
	switch {
	case err != nil:
		return 0, count, fmt.Errorf("advice: bad E1: %w", err)
	case end == 1:
		return 0, count, errors.New("advice: A1 has 1 part, want 2")
	case end == 0:
		return 0, count, errors.New("advice: top level has 2 parts, want 3")
	}
	count[listE2], end, err = r.List(3, lists[listE2])
	switch {
	case err != nil:
		return 0, count, fmt.Errorf("advice: bad E2: %w", err)
	case end == 2:
		return 0, count, errors.New("advice: A1 has more than 2 parts, want 2")
	case end == 0:
		return 0, count, errors.New("advice: top level has 2 parts, want 3")
	}
	count[listA2], end, err = r.List(2, lists[listA2])
	switch {
	case err != nil:
		return 0, count, fmt.Errorf("advice: bad A2: %w", err)
	case end == 1:
		return 0, count, errors.New("advice: top level has more than 3 parts, want 3")
	}
	return phi, count, nil
}

// treeFromTokens parses the tree stream: the number of edges n, then
// exactly 4n more tokens.
func treeFromTokens(tokens []int) ([]LabeledTreeEdge, error) {
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
// string at the start of Algorithm Elect. It reads all three nesting
// levels in one table-driven pass that checks and counts the tokens, a
// second that stores them into one array of that size, and builds the
// tries of each E2 level in one arena. A token with a leading zero is an
// error, so Decode accepts a string exactly when it is the Encode of the
// advice it decodes to.
func Decode(s bits.String) (*Advice, error) {
	_, count, err := readTokens(s, [3][]int{})
	if err != nil {
		return nil, err
	}
	buf := make([]int, count[listE1]+count[listE2]+count[listA2])
	var lists [3][]int
	for list, k := range count {
		lists[list], buf = buf[:k:k], buf[k:]
	}
	phi, _, err := readTokens(s, lists)
	if err != nil {
		return nil, err
	}
	e1, used, err := trie.FromTokens(lists[listE1])
	if err != nil {
		return nil, fmt.Errorf("advice: bad E1 trie: %w", err)
	}
	if used != len(lists[listE1]) {
		return nil, errors.New("advice: trailing E1 tokens")
	}
	e2, err := trie.E2FromTokens(lists[listE2])
	if err != nil {
		return nil, fmt.Errorf("advice: bad E2 list: %w", err)
	}
	tree, err := treeFromTokens(lists[listA2])
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
