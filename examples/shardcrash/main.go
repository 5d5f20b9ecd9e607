// Shardcrash: the crash-tolerant sharded BSP engine electing through a
// fault storm. One election runs three times on the same network — on
// the single-process engine, sharded over three shards on a clean
// transport, and sharded under a seeded chaos schedule that drops,
// duplicates, reorders and delays boundary messages and kills every
// shard once — and the outcome must not move by a bit: same leader,
// same rounds, same per-node outputs, same message count. Only the
// fault-tolerance bill (resends, crashes, replay time) changes.
//
//	go run ./examples/shardcrash
package main

import (
	"fmt"
	"log"
	"reflect"

	election "repro"
)

func main() {
	// A lollipop — clique plus tail — needs a few refinement rounds to
	// separate the clique nodes, so the sharded run crosses several
	// barriers and every armed crash below actually fires.
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

	// Sharded, clean transport: three shards own contiguous node
	// ranges and exchange one label per boundary node each round.
	res, err := s.RunMinTime(g, election.Options{Realization: election.Sharded{Shards: 3}})
	if err != nil {
		log.Fatal(err)
	}
	report("sharded (clean)", ref, res)

	// Sharded under chaos: moderate drop/dup/reorder/delay rates from
	// the seed, plus one explicit kill per shard — every shard dies at
	// a scheduled transport operation and is restarted by the
	// supervisor, which replays its journal and validates the replay
	// against its checkpoints. The whole schedule replays from the
	// seed; a real investigation would log inj.String().
	inj := election.SeededShardChaos(42, 3)
	for shard := 0; shard < 3; shard++ {
		inj.ArmAfter(election.ShardCrashCat(shard), 1+shard, 1)
	}
	res, err = s.RunMinTime(g, election.Options{Realization: election.Sharded{Shards: 3, Faults: inj}})
	if err != nil {
		log.Fatal(err)
	}
	report("sharded (chaos + kill-restart)", ref, res)
	fmt.Printf("\nchaos schedule: %s\n", inj)
}

// report prints one sharded run and verifies it against the reference.
func report(label string, ref, res *election.Result) {
	st := res.ShardStats
	fmt.Printf("%s: leader node %d in %d rounds, %d messages; %d resends, %d crashes, %d recoveries",
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
