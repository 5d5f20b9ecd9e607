// Asynchronous deployment: the paper notes that "the synchronous process
// of the LOCAL model can be simulated in an asynchronous network using
// time-stamps". This example runs the same election over three network
// substrates — the idealized synchronous LOCAL model, a goroutine
// network with real channel message passing, and an asynchronous network
// with randomized delays bridged by a time-stamp synchronizer — and
// shows that the distributed decision (leader, logical rounds) is
// bit-for-bit identical, while the physical costs differ.
//
//	go run ./examples/asyncnet
package main

import (
	"fmt"
	"log"

	election "repro"
)

func main() {
	g := election.WheelWithTail(6, 4)
	s := election.NewSystem()
	phi, ok := s.ElectionIndex(g)
	if !ok {
		log.Fatal("graph infeasible")
	}
	fmt.Printf("network: wheel with a tail, n=%d, D=%d, φ=%d\n\n", g.N(), g.Diameter(), phi)
	fmt.Printf("%-34s %-8s %-8s %-10s %-10s\n", "substrate", "leader", "rounds", "messages", "wire bits")

	type runSpec struct {
		name string
		o    election.Options
	}
	for _, spec := range []runSpec{
		{"synchronous LOCAL (reference)", election.Options{}},
		{"goroutines + channels", election.Options{Realization: election.Goroutines{}}},
		{"goroutines, bit-serialized wire", election.Options{Realization: election.Goroutines{Wire: true}}},
		{"async + synchronizer (seed 1)", election.Options{Realization: election.Async{Seed: 1}}},
		{"async + synchronizer (seed 99)", election.Options{Realization: election.Async{Seed: 99}}},
		{"async, heavy-tailed delays", election.Options{Realization: election.Async{Seed: 1, Delay: &election.ParetoDelay{}}}},
		{"async, FIFO links", election.Options{Realization: election.Async{Seed: 1, Delay: &election.FIFODelay{}}}},
	} {
		res, err := s.RunMinTime(g, spec.o)
		if err != nil {
			log.Fatalf("%s: %v", spec.name, err)
		}
		fmt.Printf("%-34s %-8d %-8d %-10d %-10d\n",
			spec.name, res.Leader, res.Time, res.Messages, res.WireBits)
	}
	fmt.Println("\nsame leader and same logical time everywhere: only the substrate changed.")
}
