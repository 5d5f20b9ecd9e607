// Adversarial schedules: the asynchronous engine's delay models are an
// adversary that controls *when* every message arrives but — thanks to
// the time-stamp synchronizer — nothing else. This example runs the
// same minimum-time election on a hairy ring (Proposition 4.1's class
// H) under increasingly hostile schedules, ending with the targeted
// slow-cut adversary: the cut of Figure 9b (families.Cut severs the
// ring edge entering a chosen ring node) becomes a delay cut that
// starves the two ring edges bounding an arc, holding the arc logical
// rounds behind the rest of the graph. The leader and every decision
// round are identical in all runs; only the schedule columns move —
// and with the cut severed outright (DropDelay) the network provably
// cannot elect, which the engine reports with the stuck nodes' rounds.
//
//	go run ./examples/adversary
package main

import (
	"fmt"
	"log"

	election "repro"
)

func main() {
	// A hairy ring with a unique maximum star (feasibility) and some
	// texture along the ring.
	sizes := []int{5, 1, 0, 3, 2, 0, 1, 4, 0, 2, 1, 3}
	h := election.BuildHairyRing(sizes)
	g := h.G
	s := election.NewSystem()
	phi, ok := s.ElectionIndex(g)
	if !ok {
		log.Fatal("hairy ring infeasible — the maximum star is not unique")
	}
	fmt.Printf("hairy ring: %d ring nodes, n=%d, φ=%d\n", len(sizes), g.N(), phi)

	// The adversary starves the cut bounding the arc of ring positions
	// [3, 9): the ring edge the Figure 9b cut at position 3 removes,
	// plus its counterpart at position 9.
	arc := h.ArcMembers(3, 6)
	slowCut := election.NewSlowCutDelay(arc, 40, 0.02)

	fmt.Printf("\n%-28s %-8s %-8s %-14s %-10s\n", "schedule", "leader", "rounds", "virtual time", "max skew")
	for _, spec := range []struct {
		name  string
		model election.DelayModel
	}{
		{"uniform (0,1]", nil},
		{"exponential", &election.ExponentialDelay{}},
		{"pareto heavy tail", &election.ParetoDelay{}},
		{"frozen per-edge", &election.FixedEdgeDelay{}},
		{"FIFO links", &election.FIFODelay{}},
		{"slow-cut on the arc", slowCut},
	} {
		res, err := s.RunMinTime(g, election.Options{Realization: election.Async{Seed: 7, Delay: spec.model}})
		if err != nil {
			log.Fatalf("%s: %v", spec.name, err)
		}
		fmt.Printf("%-28s %-8d %-8d %-14.3f %-10d\n",
			spec.name, res.Leader, res.Time, res.VirtualTime, res.MaxSkew)
	}

	fmt.Println("\nsame leader, same logical rounds: the adversary only bends the schedule.")

	// Sever the cut outright: the arc can never hear the rest of the
	// graph, so the synchronizer stalls and the engine must refuse.
	_, err := s.RunMinTime(g, election.Options{Realization: election.Async{
		Seed: 7, Delay: election.NewSlowCutDelay(arc, election.DropDelay, 0.02),
	}})
	fmt.Printf("\nsevered cut: %v\n", err)
}
