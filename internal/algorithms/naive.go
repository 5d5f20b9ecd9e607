package algorithms

import (
	"repro/internal/advice"
	"repro/internal/bits"
	"repro/internal/sim"
	"repro/internal/view"
)

// NaiveElect is the node program for the naive advice of Section 3's
// introduction: the advice carries every depth-φ view explicitly, so the
// node just serializes its own acquired view, finds its rank in the
// list, and walks the tree. Same time φ as Elect, but with the
// Ω(n² log n) advice the paper's trie construction exists to avoid.
type NaiveElect struct {
	Adv *advice.NaiveAdvice
}

// NewNaiveElectFactory decodes the naive advice string and returns the
// factory.
func NewNaiveElectFactory(tab *view.Table, advBits bits.String) (sim.Factory, error) {
	a, err := advice.DecodeNaive(advBits)
	if err != nil {
		return nil, err
	}
	prog := &NaiveElect{Adv: a}
	return func(simID, deg int) sim.Decider { return prog }, nil
}

// Decide implements sim.Decider.
func (e *NaiveElect) Decide(r int, b *view.View) ([]int, bool) {
	if r < e.Adv.Phi {
		return nil, false
	}
	x, err := e.Adv.RankOf(view.Serialize(b))
	if err != nil {
		return []int{}, true
	}
	ports, err := e.Adv.PathToLeader(x)
	if err != nil {
		return []int{}, true
	}
	return ports, true
}
