package trie

import (
	"errors"
	"fmt"
	"math"
)

// Tokens serializes t as a self-delimiting preorder integer stream:
// a leaf is the single token 0; an internal node is 1, A, B followed by
// the streams of its two children. Combined with the doubling code of
// internal/bits this realizes the paper's bin(Tr) within the O(n log n)
// budget of Proposition 3.2. The stream is the node array in order.
func (t Trie) Tokens() []int {
	// A trie with L leaves has L-1 internal nodes: 4L-3 tokens exactly.
	return t.appendTokens(make([]int, 0, 4*t.Leaves()-3))
}

func (t Trie) appendTokens(out []int) []int {
	for _, nd := range t {
		if nd.right == 0 {
			out = append(out, 0)
		} else {
			out = append(out, 1, int(nd.a), int(nd.b))
		}
	}
	return out
}

// FromTokens parses a trie from the front of a token stream, returning
// the trie and the number of tokens consumed. The stream is decoded
// advice, input from outside the program, so the parse neither recurses
// nor keeps a stack (a degenerate trie cannot grow either), and a query
// value that does not fit the int32 node is an error — a silent
// truncation would turn corrupt advice into a wrong label.
func FromTokens(tokens []int) (Trie, int, error) {
	nodes, used, err := countTrie(tokens)
	if err != nil {
		return nil, 0, err
	}
	t := make(Trie, nodes)
	fillTrie(t, tokens)
	return t, used, nil
}

// countTrie validates the trie stream at the front of tokens and returns
// its number of nodes and of tokens, so the trie is allocated once at its
// size.
func countTrie(tokens []int) (nodes, used int, err error) {
	pos := 0
	for open := 1; open > 0; nodes++ { // open: subtrees still to parse
		if pos >= len(tokens) {
			return 0, 0, errors.New("trie: truncated token stream")
		}
		switch tag := tokens[pos]; tag {
		case 0:
			pos++
			open--
		case 1:
			if pos+2 >= len(tokens) {
				return 0, 0, errors.New("trie: truncated query")
			}
			a, b := tokens[pos+1], tokens[pos+2]
			if a != int(int32(a)) || b != int(int32(b)) {
				return 0, 0, fmt.Errorf("trie: query (%d, %d) outside int32", a, b)
			}
			pos += 3
			open++
		default:
			return 0, 0, fmt.Errorf("trie: invalid tag %d", tag)
		}
	}
	if nodes > math.MaxInt32 {
		return 0, 0, fmt.Errorf("trie: %d nodes overflow the int32 child index", nodes)
	}
	return nodes, pos, nil
}

// fillTrie writes the trie stream at the front of tokens, which
// countTrie accepted, into the front of t, and returns its number of
// nodes and of tokens. The right child of internal node i follows its
// left subtree, at i + 1 + size(i+1): a backward pass writes the size of
// every subtree into its root's right field, and a forward pass turns
// those sizes into right-child indices. So the fill takes no stack,
// whatever the trie's shape.
func fillTrie(t Trie, tokens []int) (nodes, used int) {
	for open := 1; open > 0; nodes++ { // open: subtrees still to fill
		if tokens[used] == 0 {
			t[nodes] = node{right: 1} // a leaf is a subtree of one node
			used++
			open--
			continue
		}
		t[nodes] = node{a: int32(tokens[used+1]), b: int32(tokens[used+2])}
		used += 3
		open++
	}
	t = t[:nodes]
	for i := nodes - 1; i >= 0; i-- {
		if t[i].right == 0 { // internal, and both subtrees sized
			left := t[i+1].right
			t[i].right = 1 + left + t[i+1+int(left)].right
		}
	}
	for i := range t {
		if t[i].right == 1 {
			t[i].right = 0
		} else {
			t[i].right = int32(i) + 1 + t[i+1].right
		}
	}
	return nodes, used
}

// Node returns node i of t in preorder, the order of the token stream:
// its query (a, b) when it is internal, and leaf true when it is a leaf.
// An encoder writes the stream from it without building a token slice.
func (t Trie) Node(i int) (a, b int32, leaf bool) {
	nd := t[i]
	return nd.a, nd.b, nd.right == 0
}

// TokensE2 serializes a nested list E2 as a flat integer stream:
// the number of levels, then for each level its depth, its number of
// couples, and for each couple the integer J followed by the inline trie
// stream. This realizes bin(E2) within the budget of Proposition 3.4.
func (e E2) TokensE2() []int {
	total := 1
	for _, l := range e {
		total += 2
		for _, c := range l.Couples {
			total += 1 + 4*c.T.Leaves() - 3
		}
	}
	out := make([]int, 0, total)
	out = append(out, len(e))
	for _, l := range e {
		out = append(out, l.Depth, len(l.Couples))
		for _, c := range l.Couples {
			out = append(out, c.J)
			out = c.T.appendTokens(out)
		}
	}
	return out
}

// E2FromTokens inverts TokensE2. Counts read from the stream size no
// allocation beyond what the remaining tokens can fill: a couple takes
// at least two tokens (J and a leaf), a level at least two (its header).
// The tries of one level are validated and counted first and then
// carved out of one arena, as the oracle builds them, so a level costs a
// fixed number of allocations however many couples it has.
func E2FromTokens(tokens []int) (E2, error) {
	if len(tokens) == 0 {
		return nil, errors.New("trie: empty E2 stream")
	}
	nLevels := tokens[0]
	pos := 1
	if nLevels < 0 || nLevels > (len(tokens)-pos)/2 {
		return nil, errors.New("trie: truncated E2 level header")
	}
	e2 := make(E2, 0, nLevels)
	for i := 0; i < nLevels; i++ {
		if pos+1 >= len(tokens) {
			return nil, errors.New("trie: truncated E2 level header")
		}
		depth, nCouples := tokens[pos], tokens[pos+1]
		pos += 2
		if nCouples < 0 || nCouples > (len(tokens)-pos)/2 {
			return nil, errors.New("trie: truncated E2 couple")
		}
		start, nodes := pos, 0
		for c := 0; c < nCouples; c++ {
			if pos >= len(tokens) {
				return nil, errors.New("trie: truncated E2 couple")
			}
			k, used, err := countTrie(tokens[pos+1:])
			if err != nil {
				return nil, err
			}
			pos += 1 + used
			nodes += k
		}
		couples := make([]Couple, nCouples)
		arena := make(Trie, nodes)
		pos = start
		for c := range couples {
			k, used := fillTrie(arena, tokens[pos+1:])
			couples[c] = Couple{J: tokens[pos], T: arena[:k:k]}
			arena = arena[k:]
			pos += 1 + used
		}
		e2 = append(e2, NewLevelList(depth, couples))
	}
	if pos != len(tokens) {
		return nil, fmt.Errorf("trie: %d trailing E2 tokens", len(tokens)-pos)
	}
	return e2, nil
}
