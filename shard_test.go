package election

// Differential suite for the crash-tolerant sharded BSP engine at the
// election level (DESIGN.md §9): on every graph family, an election run
// on the Sharded realization must be bit-identical to the single-process
// BSP engine — same Leader, Time, Messages, per-node Rounds and
// Outputs — with a clean transport, under seeded chaos schedules
// (drops, dups, reorders, delays, crashes), and across kill-restart
// recoveries. CI runs this under -race; extra chaos seeds can be
// supplied via SHARD_CHAOS_SEEDS=7,8,9.
import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/view"
)

var shardCounts = []int{2, 3}

// shardChaosSeeds returns the chaos schedules to replay: three fixed
// seeds, plus any extras from SHARD_CHAOS_SEEDS (comma-separated).
func shardChaosSeeds(tb testing.TB) []int64 {
	seeds := []int64{1, 2, 3}
	env := os.Getenv("SHARD_CHAOS_SEEDS")
	if env == "" {
		return seeds
	}
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			tb.Fatalf("SHARD_CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// requireSameShardRun extends requireSameElection with the Messages
// equality the synchronous engines share (the sharded engine reproduces
// the paper's 2m-per-round measure exactly; transport traffic is
// accounted separately in ShardStats).
func requireSameShardRun(tb testing.TB, label string, ref, res *Result) {
	tb.Helper()
	requireSameElection(tb, label, ref, res)
	if res.Messages != ref.Messages {
		tb.Errorf("%s: messages=%d, reference has %d", label, res.Messages, ref.Messages)
	}
}

// TestShardedDifferential runs the full minimum-time pipeline on every
// feasible family with the sharded engine — clean transport and chaos
// schedules — against the BSP reference.
func TestShardedDifferential(t *testing.T) {
	seeds := shardChaosSeeds(t)
	for name, g := range equivalenceFamilies() {
		s := NewSystem()
		if !s.Feasible(g) {
			continue
		}
		_, enc, err := s.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := s.RunElect(g, enc, Options{}) // single-process BSP
		if err != nil {
			t.Fatalf("%s/bsp: %v", name, err)
		}
		for _, shards := range shardCounts {
			res, err := s.RunElect(g, enc, Options{Realization: Sharded{Shards: shards}})
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", name, shards, err)
			}
			requireSameShardRun(t, name+"/clean", ref, res)
			if st := res.ShardStats; st == nil || st.Crashes != 0 {
				t.Errorf("%s/shards=%d: clean run stats = %+v", name, shards, st)
			}
			for _, seed := range seeds {
				inj := SeededShardChaos(seed, shards)
				res, err := s.RunElect(g, enc, Options{Realization: Sharded{Shards: shards, Faults: inj, Seed: seed}})
				label := name + "/chaos/" + inj.String()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameShardRun(t, label, ref, res)
			}
		}
	}
}

// TestShardedKillRestart kills shard 0 at its first transport operation
// on every feasible family: the supervisor must restart it, the replay
// must complete (Recoveries >= 1), and the outputs must not move.
func TestShardedKillRestart(t *testing.T) {
	for name, g := range equivalenceFamilies() {
		s := NewSystem()
		if !s.Feasible(g) {
			continue
		}
		_, enc, err := s.ComputeAdvice(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := s.RunElect(g, enc, Options{})
		if err != nil {
			t.Fatalf("%s/bsp: %v", name, err)
		}
		inj := NewFaultInjector(11)
		inj.ArmAfter(ShardCrashCat(0), 1, 1)
		res, err := s.RunElect(g, enc, Options{Realization: Sharded{Shards: 3, Faults: inj}})
		if err != nil {
			t.Fatalf("%s/kill-restart: %v [%s]", name, err, inj)
		}
		requireSameShardRun(t, name+"/kill-restart", ref, res)
		st := res.ShardStats
		if st == nil || st.Crashes < 1 || st.Recoveries < 1 {
			t.Errorf("%s: kill-restart stats = %+v [%s]", name, st, inj)
		}
	}
}

// TestShardedSynthetic drives the sharded engine below the election
// layer on every family, feasible or not (ring, hypercube, torus reject
// election before any engine runs), with the synthetic degree decider —
// the sharded counterpart of TestEngineEquivalenceSynthetic.
func TestShardedSynthetic(t *testing.T) {
	for name, g := range equivalenceFamilies() {
		mk := func() sim.Factory {
			return func(simID, deg int) sim.Decider {
				return &degStop{round: 1 + deg%3}
			}
		}
		ref, err := sim.RunBSP(view.NewTable(), g, mk(), 100, 0)
		if err != nil {
			t.Fatalf("%s/bsp: %v", name, err)
		}
		for _, shards := range shardCounts {
			res, _, err := shard.Run(view.NewTable(), g, mk(), shard.Options{Shards: shards, MaxRounds: 100})
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", name, shards, err)
			}
			if res.Time != ref.Time || res.Messages != ref.Messages ||
				!reflect.DeepEqual(res.Rounds, ref.Rounds) ||
				!reflect.DeepEqual(res.Outputs, ref.Outputs) {
				t.Errorf("%s/shards=%d: sharded run disagrees with bsp", name, shards)
			}
		}
	}
}
