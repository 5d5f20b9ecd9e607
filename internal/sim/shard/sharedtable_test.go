package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// viewCountTransport counts the KindView messages and view bodies a run
// sends.
type viewCountTransport struct {
	Transport
	msgs, bodies atomic.Int64
}

func (t *viewCountTransport) Send(m Message) error {
	if m.Kind == KindView {
		t.msgs.Add(1)
		t.bodies.Add(int64(len(m.Views)))
	}
	return t.Transport.Send(m)
}

// viewCountJournal counts the view bodies a run journals.
type viewCountJournal struct {
	Journal
	bodies atomic.Int64
}

func (j *viewCountJournal) Views(shard, peer int, vs []WireView) error {
	j.bodies.Add(int64(len(vs)))
	return j.Journal.Views(shard, peer, vs)
}

// TestSharedTableExchangesIDsOnly pins that the deployment decides
// whether view bodies travel: the in-process engine's shards intern into
// one table, so clean or under chaos (crashes and replays included) they
// send and journal no view body, with outputs still bit-identical to
// RunBSP, while workers with a table each (goWorkers) still ship and
// journal them.
func TestSharedTableExchangesIDsOnly(t *testing.T) {
	g := graph.RandomConnected(60, 45, 11)
	want, err := sim.RunBSP(view.NewTable(), g, countFactory, sim.DefaultMaxRounds(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	crashes := 0
	for _, seed := range []int64{0, 1, 2} { // seed 0: clean transport
		var inner Transport = NewChanTransport(shards)
		label := "clean"
		if seed != 0 {
			inj := SeededChaos(seed, shards)
			inj.ArmAfter(CrashCat(1), 3, 1) // at least one replay per schedule
			inner = NewFaultTransport(inner, inj)
			label = fmt.Sprintf("chaos seed=%d [%s]", seed, inj)
		}
		tr := &viewCountTransport{Transport: inner}
		jr := &viewCountJournal{Journal: NewMemJournal()}
		got, stats, err := Run(view.NewTable(), g, countFactory, Options{Shards: shards, Transport: tr, Journal: jr, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSame(t, label, want, got)
		if n, b := tr.msgs.Load(), jr.bodies.Load(); n != 0 || b != 0 {
			t.Errorf("%s: %d view messages sent and %d view bodies journaled, want none", label, n, b)
		}
		crashes += stats.Crashes
	}
	if crashes == 0 {
		t.Error("no chaos schedule crashed a shard: replay through the shared index went unexercised")
	}

	jr := &viewCountJournal{Journal: NewMemJournal()}
	got, _, err := goWorkers(t, g, shards, jr, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "proc", want, got)
	if jr.bodies.Load() == 0 {
		t.Error("proc run journaled no view bodies: workers with their own tables stopped shipping views")
	}
}

// TestSharedTableUnknownGhostID plants a journaled ghost payload that no
// shard of the run published — ids from another table — and checks the
// run fails with a typed *UnknownViewError, not a panic or a wrong
// answer.
func TestSharedTableUnknownGhostID(t *testing.T) {
	g := graph.RandomConnected(60, 45, 11)
	const shards = 2
	ids := make([]uint64, len(newTopology(g, shards).sendList[0][1]))
	for i := range ids {
		ids[i] = 1<<40 + uint64(i)
	}
	jr := NewMemJournal()
	if err := jr.Ghosts(1, GhostRecord{Round: 0, Peer: 0, IDs: ids}); err != nil {
		t.Fatal(err)
	}
	_, _, err := Run(view.NewTable(), g, countFactory, Options{Shards: shards, Journal: jr})
	var uv *UnknownViewError
	if !errors.As(err, &uv) {
		t.Fatalf("err = %v, want *UnknownViewError", err)
	}
	if uv.Shard != 1 || uv.Peer != 0 || uv.ID != ids[0] {
		t.Errorf("error names shard %d, peer %d, id %d; want 1, 0, %d", uv.Shard, uv.Peer, uv.ID, ids[0])
	}
}
