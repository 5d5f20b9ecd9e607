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
// advice, input from outside the program, so the parse runs on an
// explicit stack (a degenerate trie cannot grow the goroutine stack),
// and a query value that does not fit the int32 node is an error — a
// silent truncation would turn corrupt advice into a wrong label.
func FromTokens(tokens []int) (Trie, int, error) {
	// First pass: validate, and count the nodes so the trie is
	// allocated once at its size.
	nodes, pos := 0, 0
	for open := 1; open > 0; nodes++ { // open: subtrees still to parse
		if pos >= len(tokens) {
			return nil, 0, errors.New("trie: truncated token stream")
		}
		switch tag := tokens[pos]; tag {
		case 0:
			pos++
			open--
		case 1:
			if pos+2 >= len(tokens) {
				return nil, 0, errors.New("trie: truncated query")
			}
			a, b := tokens[pos+1], tokens[pos+2]
			if a != int(int32(a)) || b != int(int32(b)) {
				return nil, 0, fmt.Errorf("trie: query (%d, %d) outside int32", a, b)
			}
			pos += 3
			open++
		default:
			return nil, 0, fmt.Errorf("trie: invalid tag %d", tag)
		}
	}
	if nodes > math.MaxInt32 {
		return nil, 0, fmt.Errorf("trie: %d nodes overflow the int32 child index", nodes)
	}
	// Second pass: fill. A node that follows a leaf is the right child
	// of the innermost internal node still waiting for one.
	t := make(Trie, nodes)
	var stackBuf [32]int32
	waiting := stackBuf[:0]
	afterLeaf := false
	pos = 0
	for i := range t {
		if afterLeaf {
			p := waiting[len(waiting)-1]
			waiting = waiting[:len(waiting)-1]
			t[p].right = int32(i)
		}
		if afterLeaf = tokens[pos] == 0; afterLeaf {
			pos++
			continue
		}
		t[i] = node{a: int32(tokens[pos+1]), b: int32(tokens[pos+2])}
		pos += 3
		waiting = append(waiting, int32(i))
	}
	return t, pos, nil
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
		couples := make([]Couple, 0, nCouples)
		for c := 0; c < nCouples; c++ {
			if pos >= len(tokens) {
				return nil, errors.New("trie: truncated E2 couple")
			}
			j := tokens[pos]
			pos++
			t, used, err := FromTokens(tokens[pos:])
			if err != nil {
				return nil, err
			}
			pos += used
			couples = append(couples, Couple{J: j, T: t})
		}
		e2 = append(e2, NewLevelList(depth, couples))
	}
	if pos != len(tokens) {
		return nil, fmt.Errorf("trie: %d trailing E2 tokens", len(tokens)-pos)
	}
	return e2, nil
}
