// Label programs.
//
// A node program that reads its view B^r(v) only through one integer
// per round — its label, computed from its own and its neighbors'
// labels of the round before — needs no view at all: unrolled over
// rounds, that recursion is message passing, each round's message one
// int32 plus the sender's port, O(log n) bits where a view message is
// a whole view. Algorithm Elect is such a program: RetrieveLabel
// (Algorithm 3) combines a view's truncation label with its children's
// labels, so a node's depth-r label is a function of its own and its
// neighbors' depth-(r−1) labels, and the labels name the view classes
// depth by depth (the Yamashita–Kameda quotient). RunBSPCtx runs label
// programs on two int32 arrays, interning no view and tracking no
// class.
package sim

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// LabelProgram is a Decider that can also run on labels. A node's
// round-0 label is its degree; its round-1 label is InitLabel of its
// depth-1 view; its round-r label, r >= 2, is StepLabel of its own and
// its neighbors' round-(r−1) labels. DecideLabel on the round-r label
// must return what Decide returns on B^r(v), so that the engine may
// run either form and the outputs agree. The methods must be safe for
// concurrent use on different nodes, like Decide.
type LabelProgram interface {
	Decider
	// InitLabel returns the round-1 label of a node whose port j leads
	// to port remote[j] of a neighbor of degree nbrDeg[j].
	InitLabel(remote, nbrDeg []int32) int32
	// StepLabel returns the round-r label (r >= 2) of a node whose
	// round-(r−1) label is own and whose neighbors' are nbr, port by
	// port.
	StepLabel(r int, own int32, nbr []int32) int32
	// DecideLabel is Decide on the round-r label.
	DecideLabel(r int, label int32) (output []int, done bool)
}

// runLabels is runBSP when every decider is a LabelProgram. One
// sweep per round computes every node's label from the previous
// round's array into the other and lets the node decide on it.
func runLabels(ctx context.Context, g *graph.Graph, deciders []Decider, maxRounds, workers int) (*Result, error) {
	n := g.N()
	ls := &labelSweep{
		g:     g,
		progs: make([]LabelProgram, n),
		res:   newResult(n),
		prev:  make([]int32, n),
		cur:   make([]int32, n),
	}
	for v, d := range deciders {
		ls.progs[v] = d.(LabelProgram)
	}
	sweep := ls.sweep // bound once per run: a method value made per round escapes into For
	ls.maxDeg = g.MaxDegree()
	ls.scratch = make([]int32, 2*ls.maxDeg*par.Workers(workers))

	remaining := n
	for r := 0; ; r++ {
		if err := ctx.Err(); err != nil {
			return nil, canceled(r, remaining, err)
		}
		if r > 0 {
			ls.prev, ls.cur = ls.cur, ls.prev
			ls.res.Messages += 2 * g.M()
		}
		ls.round = r
		par.For(n, n, workers, sweep)
		remaining -= int(ls.decided.Swap(0))
		if remaining == 0 {
			break
		}
		if r >= maxRounds {
			return ls.res, budgetExceeded(maxRounds, remaining)
		}
	}
	ls.res.setTime()
	return ls.res, nil
}

// labelSweep is the round-r label step and decide sweep.
type labelSweep struct {
	g       *graph.Graph
	progs   []LabelProgram
	res     *Result      // Rounds[v] < 0 while v is undecided
	decided atomic.Int64 // nodes decided in the round so far

	round     int
	prev, cur []int32 // labels of rounds round−1 and round
	maxDeg    int
	scratch   []int32 // 2·maxDeg per worker: the ports, or the neighbors' labels
}

func (s *labelSweep) sweep(w, lo, hi int) {
	g, r, prev := s.g, s.round, s.prev
	buf := s.scratch[2*s.maxDeg*w : 2*s.maxDeg*(w+1)]
	decided := 0
	for v := lo; v < hi; v++ {
		p, deg := s.progs[v], g.Deg(v)
		var label int32
		switch r {
		case 0:
			label = int32(deg)
		case 1:
			remote, nbrDeg := buf[:deg], buf[deg:2*deg]
			for j := range deg {
				h := g.At(v, j)
				remote[j], nbrDeg[j] = int32(h.RemotePort), int32(g.Deg(h.To))
			}
			label = p.InitLabel(remote, nbrDeg)
		default:
			nbr := buf[:deg]
			for j := range deg {
				nbr[j] = prev[g.Neighbor(v, j)]
			}
			label = p.StepLabel(r, prev[v], nbr)
		}
		s.cur[v] = label
		if s.res.Rounds[v] >= 0 {
			continue
		}
		if out, ok := p.DecideLabel(r, label); ok {
			s.res.Outputs[v], s.res.Rounds[v] = out, r
			decided++
		}
	}
	s.decided.Add(int64(decided))
}
