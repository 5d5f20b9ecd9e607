// Token ring recovery — the scenario that motivated leader election in
// the first place (Le Lann 1977, cited in the paper's introduction): in
// a local-area token ring, exactly one station may initiate
// communication at a time — the owner of a circulating token. When the
// token is lost, the stations must elect a node to regenerate it.
//
// Our stations are anonymous (they refuse to reveal serial numbers for
// privacy), so we are exactly in the paper's model: a ring of
// workstations, each with some locally attached devices. A bare ring is
// perfectly symmetric and election is provably impossible; the attached
// devices break the symmetry, and the election index tells us how many
// communication rounds the recovery protocol fundamentally needs.
//
//	go run ./examples/tokenring
package main

import (
	"fmt"
	"log"

	election "repro"
)

func main() {
	// First, the cautionary tale: a bare 8-station ring.
	bare := election.Ring(8)
	s := election.NewSystem()
	if s.Feasible(bare) {
		log.Fatal("a bare ring should be infeasible")
	}
	fmt.Println("bare 8-station ring: leader election IMPOSSIBLE (perfect symmetry)")

	// Real rings are not bare: each station has a different number of
	// attached devices (printers, disks, terminals). Model them as a
	// hairy ring — the class from Proposition 4.1 of the paper.
	devices := []int{3, 1, 0, 2, 0, 5, 1, 2} // station 5 has the most devices
	ring := election.BuildHairyRing(devices)
	phi, ok := s.ElectionIndex(ring.G)
	if !ok {
		log.Fatal("hairy ring should be feasible")
	}
	fmt.Printf("ring with attached devices: n=%d, feasible, election index φ=%d\n", ring.G.N(), phi)

	// Token recovery, fastest possible: the network operator (who knows
	// the wiring map) distributes advice once, at installation time; when
	// the token is lost, stations elect the token regenerator in exactly
	// φ rounds.
	res, err := s.RunMinTime(ring.G, election.Options{Realization: election.Goroutines{}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("token regenerated by node %d after %d round(s), using %d bits of installed advice\n",
		res.Leader, res.Time, res.AdviceBits)

	// Alternative, almost no installed state: if stations may take
	// D + φ + c rounds, a logarithmic-size advice suffices (Theorem 4.1).
	res2, err := s.RunMilestone(ring.G, 1, election.Options{Realization: election.Goroutines{}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slow path: node %d elected after %d rounds with only %d bits of advice\n",
		res2.Leader, res2.Time, res2.AdviceBits)
	if res.Leader != res2.Leader {
		fmt.Println("note: the two algorithms may elect different (but unique) leaders")
	}
}
