package advice

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/view"
)

// This file implements the naive oracle that the paper's Section 3
// dismisses before constructing the trie-based advice: list all
// augmented truncated views at depth φ in canonical order, let every
// node adopt its rank in the list as its label, and ship the labeled BFS
// tree. The paper points out that already for φ = 1 the listed views
// cost Ω(n log n) bits EACH, so the advice is Ω(n² log n) — and for
// φ > 1 the explicit views grow exponentially. It exists here as the
// baseline that the real ComputeAdvice is benchmarked against
// (BenchmarkAdviceVsNaive).

// NaiveAdvice is the decoded naive advice: the explicit view list plus
// the labeled BFS tree.
type NaiveAdvice struct {
	Phi   int
	Views []bits.String // serialized distinct views of depth Phi, sorted
	Tree  []LabeledTreeEdge

	treeOnce sync.Once
	tree     *Advice // Tree with its path table, built on first use
}

// ComputeNaiveAdvice builds the naive advice for g. For graphs with
// large φ and high degree this is intentionally huge; callers cap it via
// maxBits (0 means no cap) and get an error when exceeded, mirroring why
// the paper rejects the approach.
func (o *Oracle) ComputeNaiveAdvice(g *graph.Graph, maxBits int) (*NaiveAdvice, error) {
	phi, feasible := part.ElectionIndex(g)
	if !feasible {
		return nil, errSymmetric
	}
	levels := view.Levels(o.Tab, g, phi)
	distinct := distinctSorted(o.Tab, levels[phi])
	rank := make(map[*view.View]int, len(distinct))
	serialized := make([]bits.String, len(distinct))
	total := 0
	for i, v := range distinct {
		rank[v] = i + 1 // labels 1..n
		serialized[i] = view.Serialize(v)
		total += serialized[i].Len()
		if maxBits > 0 && total > maxBits {
			return nil, fmt.Errorf("advice: naive advice exceeds %d bits at view %d/%d — the blow-up the paper predicts", maxBits, i+1, len(distinct))
		}
	}
	root := -1
	for v := 0; v < g.N(); v++ {
		if rank[levels[phi][v]] == 1 {
			root = v
		}
	}
	if root < 0 {
		return nil, errors.New("advice: no rank-1 node")
	}
	var tree []LabeledTreeEdge
	for _, e := range g.CanonicalBFSTree(root) {
		tree = append(tree, LabeledTreeEdge{
			ParentLabel: rank[levels[phi][e.Parent]],
			ChildLabel:  rank[levels[phi][e.Child]],
			PortParent:  e.PortParent,
			PortChild:   e.PortChild,
		})
	}
	return &NaiveAdvice{Phi: phi, Views: serialized, Tree: tree}, nil
}

// Encode flattens the naive advice to bits:
// Concat(bin(φ), Concat(views...), tree).
func (a *NaiveAdvice) Encode() bits.String {
	return bits.Concat(bits.Bin(a.Phi), bits.Concat(a.Views...), encodeTree(a.Tree))
}

// DecodeNaive inverts Encode.
func DecodeNaive(s bits.String) (*NaiveAdvice, error) {
	parts, err := bits.Decode(s)
	if err != nil {
		return nil, err
	}
	if len(parts) != 3 {
		return nil, fmt.Errorf("advice: naive advice has %d parts, want 3", len(parts))
	}
	phi, err := bits.ParseBin(parts[0])
	if err != nil {
		return nil, err
	}
	views, err := bits.Decode(parts[1])
	if err != nil {
		return nil, err
	}
	tree, err := decodeTree(parts[2])
	if err != nil {
		return nil, err
	}
	return &NaiveAdvice{Phi: phi, Views: views, Tree: tree}, nil
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
	return treeFromTokens(tokens)
}

// RankOf returns the 1-based rank of the serialized view s in the list,
// or an error if absent — the naive node-side labeling step.
func (a *NaiveAdvice) RankOf(s bits.String) (int, error) {
	for i, v := range a.Views {
		if bits.Equal(v, s) {
			return i + 1, nil
		}
	}
	return 0, errors.New("advice: view not in naive list")
}

// PathToLeader mirrors (*Advice).PathToLeader for the naive tree, which
// DecodeNaive does not validate. The Advice carrying the tree's path
// table is built once and shared by every call; the returned slice is
// read-only, like (*Advice).PathToLeader's.
func (a *NaiveAdvice) PathToLeader(x int) ([]int, error) {
	a.treeOnce.Do(func() { a.tree = &Advice{Tree: a.Tree} })
	return a.tree.PathToLeader(x)
}
