// Quickstart: build a small anonymous port-labeled network, ask the
// oracle for advice, run the minimum-time election algorithm of
// Theorem 3.1, and print what every node output.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	election "repro"
)

func main() {
	// A 6-node network built by hand: a square with a tail.
	//
	//	0 — 1
	//	|   |
	//	3 — 2 — 4 — 5
	//
	// Each edge carries one port number per endpoint; at every node the
	// ports are 0..deg-1. Nodes have no identifiers: the ints below are
	// construction-time handles only, invisible to the algorithm.
	g, err := election.NewBuilder(6).
		AddEdge(0, 0, 1, 0).
		AddEdge(1, 1, 2, 0).
		AddEdge(2, 1, 3, 0).
		AddEdge(3, 1, 0, 1).
		AddEdge(2, 2, 4, 0).
		AddEdge(4, 1, 5, 0).
		Finalize()
	if err != nil {
		log.Fatal(err)
	}

	s := election.NewSystem()
	phi, feasible := s.ElectionIndex(g)
	if !feasible {
		log.Fatal("this network is too symmetric: leader election is impossible")
	}
	fmt.Printf("network: n=%d, diameter=%d, election index φ=%d\n", g.N(), g.Diameter(), phi)

	// The oracle inspects the whole network and emits one binary string,
	// given identically to every node.
	_, advice, err := s.ComputeAdvice(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle advice: %d bits\n", advice.Len())

	// Every node runs Algorithm Elect for exactly φ synchronous rounds
	// (here with one goroutine per node and channel message passing).
	res, err := s.RunElect(g, advice, election.Options{Realization: election.Goroutines{}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elected leader: node %d, in %d round(s)\n\n", res.Leader, res.Time)
	for v, ports := range res.Outputs {
		fmt.Printf("node %d output port sequence %v\n", v, ports)
	}
}
