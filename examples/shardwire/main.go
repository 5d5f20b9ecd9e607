// Shardwire: the sharded BSP engine on a real wire. The same election
// runs three times — on the single-process engine, sharded over real
// loopback sockets with a disk-backed journal, and again with
// socket-layer chaos plus a shard kill whose replacement replays the
// journal from disk — and the outcome must not move by a bit: same
// leader, same rounds, same per-node outputs, same message count.
//
// This is the in-process face of the multi-process data plane: the
// frames on these sockets are byte-identical to the ones `shardd`
// workers exchange, and the journal directory layout is the one a
// kill -9'd worker restores from. For real worker processes, run
//
//	electsim -graph hairy -n 64 -algo mintime -shards=3 -listen=127.0.0.1:0
//
// which spawns one shardd per shard and supervises them over a control
// socket (see DESIGN.md §12).
//
//	go run ./examples/shardwire
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"

	election "repro"
)

func main() {
	// A lollipop — clique plus tail — needs a few refinement rounds to
	// separate the clique nodes, so the run crosses several barriers
	// and ships several rounds of boundary frames.
	g := election.Lollipop(12, 8)
	s := election.NewSystem()
	fmt.Printf("lollipop: n=%d m=%d\n\n", g.N(), g.M())

	// Reference: the single-process BSP engine (Elect on labels).
	ref, err := s.RunMinTime(g, election.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single process: leader node %d in %d rounds, %d messages\n",
		ref.Leader, ref.Time, ref.Messages)

	dir, err := os.MkdirTemp("", "shardwire-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Sharded over real sockets: three shards exchange boundary frames
	// over a unix-socket mesh ("tcp" works the same way) and journal
	// every checkpoint and payload to disk with fsync-before-rename
	// commits. The transport may lose, duplicate, reorder or delay
	// frames; seq/ack/retry absorbs all of it.
	run := func(label string, inj *election.FaultInjector, journal string) {
		sockDir := filepath.Join(dir, "sock-"+journal)
		if err := os.MkdirAll(sockDir, 0o755); err != nil {
			log.Fatal(err)
		}
		grp, err := election.NewShardNetGroup("unix", sockDir, 3, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer grp.Close()
		res, err := s.RunMinTime(g, election.Options{Realization: election.Sharded{
			Shards:    3,
			Transport: grp,
			Journal:   election.NewShardFileJournal(nil, filepath.Join(dir, journal)),
			Faults:    inj,
		}})
		if err != nil {
			log.Fatal(err)
		}
		report(label, ref, res)
	}
	run("sockets + disk journal (clean)", nil, "j-clean")

	// Now under chaos: moderate drop/dup/reorder/delay rates from the
	// seed, plus one explicit kill of shard 1. The replacement shard
	// reads its checkpoints and peer payloads back from the journal
	// directory — the same recovery path a kill -9'd shardd process
	// takes — and validates the replay against every checkpoint.
	inj := election.SeededShardChaos(42, 3)
	inj.ArmAfter(election.ShardCrashCat(1), 3, 1)
	run("sockets + disk journal (chaos + kill)", inj, "j-chaos")
	fmt.Printf("\nchaos schedule: %s\n", inj)
}

// report prints one sharded run and verifies it against the reference.
func report(label string, ref, res *election.Result) {
	st := res.ShardStats
	fmt.Printf("%s:\n  leader node %d in %d rounds, %d messages; %d resends, %d crashes, %d recoveries",
		label, res.Leader, res.Time, res.Messages, st.Retries, st.Crashes, st.Recoveries)
	if st.Recoveries > 0 {
		fmt.Printf(" (mean replay %v)", st.MeanRecovery())
	}
	fmt.Println()
	if res.Leader != ref.Leader || res.Time != ref.Time || res.Messages != ref.Messages ||
		!reflect.DeepEqual(res.Outputs, ref.Outputs) || !reflect.DeepEqual(res.Rounds, ref.Rounds) {
		log.Fatalf("%s: outcome diverged from the single-process run", label)
	}
	fmt.Println("  outcome bit-identical to the single-process run")
}
