// Command shardd is one worker process of the multi-process sharded
// BSP deployment (internal/sim/shard, DESIGN.md §12): it owns one
// contiguous node range of a shared graph, runs Algorithm Elect on
// labels over it, exchanges its boundary nodes' labels with its peer
// workers over real sockets, journals to disk, and answers to a
// supervisor (electsim -listen, or shard.RunProc embedded in a test)
// over a persistent control connection.
//
// A worker is expendable by design: kill -9 it mid-round and the
// supervisor restarts it with -inc bumped; the replacement replays its
// disk journal (-journal) and rejoins the barrier bit-identically.
//
// Usage (normally generated by the supervisor, not typed):
//
//	shardd -shard 1 -shards 3 -graph g.bin -advice adv.txt \
//	    -sup 127.0.0.1:40001 -peers 127.0.0.1:41000,127.0.0.1:41001,127.0.0.1:41002 \
//	    -journal /tmp/run1/journal
//
// Exit codes: 0 clean stop, 1 configuration or algorithm failure,
// 3 injected crash (-chaos crash budget tripped), 4 control connection
// lost while the run was live.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bits"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim/shard"
)

func main() {
	var (
		shardIdx  = flag.Int("shard", -1, "this worker's shard index (0-based)")
		shards    = flag.Int("shards", 0, "total number of shards")
		inc       = flag.Int("inc", 0, "incarnation number (0 first start; the supervisor bumps it per restart)")
		graphPath = flag.String("graph", "", "graph file in the binary (APG1) format")
		advPath   = flag.String("advice", "", "advice bit-string file (text of 0s and 1s)")
		network   = flag.String("network", "tcp", "socket family for control and data planes: tcp or unix")
		sup       = flag.String("sup", "", "supervisor control address")
		peers     = flag.String("peers", "", "comma-separated data-plane addresses, indexed by shard")
		journal   = flag.String("journal", "", "journal directory (FileJournal root); empty runs with an in-memory journal (no crash recovery)")
		seed      = flag.Int64("seed", 0, "retry-jitter seed (shared with the in-process engine's Options.Seed)")
		chaos     = flag.String("chaos", "", "fault schedule (faults.ParseSchedule spec) for the data plane; budget clauses (# and @) apply to incarnation 0 only, so an injected crash cannot re-arm itself into a restart loop")
		chaosSeed = flag.Int64("chaos-seed", 0, "seed for the chaos schedule's rate draws")
		timeout   = flag.Duration("round-timeout", 0, "boundary-exchange deadline per round (0 = the engine default)")
	)
	flag.Parse()
	if err := run(*shardIdx, *shards, *inc, *graphPath, *advPath, *network, *sup, *peers, *journal, *seed, *chaos, *chaosSeed, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "shardd: shard %d: %v\n", *shardIdx, err)
		switch {
		case isCrash(err):
			os.Exit(3)
		case shard.IsCtrlLost(err):
			os.Exit(4)
		default:
			os.Exit(1)
		}
	}
}

func isCrash(err error) bool {
	var crash *shard.CrashError
	return errors.As(err, &crash)
}

func run(shardIdx, shards, inc int, graphPath, advPath, network, sup, peers, journal string, seed int64, chaos string, chaosSeed int64, timeout time.Duration) error {
	if shards < 2 || shardIdx < 0 || shardIdx >= shards {
		return fmt.Errorf("need -shards >= 2 and -shard in [0,%d)", shards)
	}
	if graphPath == "" || advPath == "" || sup == "" {
		return fmt.Errorf("need -graph, -advice and -sup")
	}
	addrs := strings.Split(peers, ",")
	if len(addrs) != shards {
		return fmt.Errorf("-peers lists %d addresses, want %d", len(addrs), shards)
	}
	g, err := graph.LoadBinaryFile(graphPath)
	if err != nil {
		return err
	}
	advText, err := os.ReadFile(advPath)
	if err != nil {
		return err
	}
	advBits, err := bits.Parse(strings.TrimSpace(string(advText)))
	if err != nil {
		return fmt.Errorf("decode advice: %w", err)
	}
	// The worker runs Elect on labels, which reads no view table.
	factory, err := algorithms.NewElectFactory(nil, advBits)
	if err != nil {
		return fmt.Errorf("decode advice: %w", err)
	}

	// Budget clauses re-arm from zero in every incarnation (the injector
	// is process-local), so a crash budget would trip again after every
	// restart and burn the whole restart budget; restarted incarnations
	// keep only the memoryless rate clauses.
	if inc > 0 {
		chaos = rateClausesOnly(chaos)
	}
	inj, err := faults.ParseSchedule(chaosSeed, chaos)
	if err != nil {
		return err
	}
	nt, err := shard.NewNetTransport(shardIdx, network, addrs, inj)
	if err != nil {
		return err
	}
	defer nt.Close()
	var tr shard.Transport = nt
	if chaos != "" {
		tr = shard.NewFaultTransport(nt, inj)
	}
	var jr shard.Journal = shard.NewMemJournal()
	if journal != "" {
		jr = shard.NewFileJournal(nil, journal)
	}

	return shard.RunWorker(shard.WorkerConfig{
		Shard: shardIdx, Inc: inc, Graph: g, Shards: shards,
		Factory:   factory,
		Transport: tr, Journal: jr,
		Options:     shard.Options{Seed: seed, RoundTimeout: timeout},
		CtrlNetwork: network, CtrlAddr: sup,
	})
}

// rateClausesOnly strips budget clauses (# and @) from a schedule spec,
// keeping only the cat=rate ones.
func rateClausesOnly(spec string) string {
	var keep []string
	for _, clause := range strings.Split(spec, ",") {
		if c := strings.TrimSpace(clause); strings.Contains(c, "=") && !strings.Contains(c, "#") && !strings.Contains(c, "@") {
			keep = append(keep, c)
		}
	}
	return strings.Join(keep, ",")
}
