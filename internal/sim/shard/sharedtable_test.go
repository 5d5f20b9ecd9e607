package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// viewCountTransport counts the KindView messages a run sends.
type viewCountTransport struct {
	Transport
	msgs atomic.Int64
}

func (t *viewCountTransport) Send(m Message) error {
	if m.Kind == KindView || m.Views != nil {
		t.msgs.Add(1)
	}
	return t.Transport.Send(m)
}

// viewCountJournal counts the Journal.Views calls a run makes.
type viewCountJournal struct {
	Journal
	calls atomic.Int64
}

func (j *viewCountJournal) Views(shard, peer int, vs []WireView) error {
	j.calls.Add(1)
	return j.Journal.Views(shard, peer, vs)
}

// TestSharedTableExchangesIDsOnly pins that only labels cross between
// shards: in-process runs of both program kinds, clean and under chaos
// (crashes and replays included), and worker processes (goWorkers)
// send no view body and never journal one, with outputs still
// bit-identical to RunBSP.
func TestSharedTableExchangesIDsOnly(t *testing.T) {
	g := graph.RandomConnected(60, 45, 11)
	const shards = 3
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
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
			got, stats, err := Run(view.NewTable(), g, f, Options{Shards: shards, Transport: tr, Journal: jr, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSame(t, label, want, got)
			if n, c := tr.msgs.Load(), jr.calls.Load(); n != 0 || c != 0 {
				t.Errorf("%s: %d view messages sent and %d view batches journaled, want none", label, n, c)
			}
			crashes += stats.Crashes
		}
		if crashes == 0 {
			t.Error("no chaos schedule crashed a shard: replay went unexercised")
		}
	})

	want, err := sim.RunBSP(view.NewTable(), g, countLabelFactory, sim.DefaultMaxRounds(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	jr := &viewCountJournal{Journal: NewMemJournal()}
	got, _, err := goWorkers(t, g, shards, countLabelFactory, jr, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "proc", want, got)
	if c := jr.calls.Load(); c != 0 {
		t.Errorf("proc run journaled %d view batches, want none", c)
	}
}

// TestSharedTableUnknownGhostID plants a journaled round-1 ghost payload
// of labels that name no view of the run — ids from another table — and
// checks the view adapter fails the run with a typed *UnknownViewError
// naming the first node whose step reads one, not a panic or a wrong
// answer.
func TestSharedTableUnknownGhostID(t *testing.T) {
	g := graph.RandomConnected(60, 45, 11)
	const shards = 2
	topo := newTopology(g, shards)
	sent := topo.sendList[0][1]
	labels := make([]int32, len(sent))
	for i := range labels {
		labels[i] = 1<<30 + int32(i)
	}
	jr := NewMemJournal()
	if err := jr.Ghosts(1, GhostRecord{Round: 1, Peer: 0, Labels: labels}); err != nil {
		t.Fatal(err)
	}
	_, _, err := Run(view.NewTable(), g, countFactory, Options{Shards: shards, Journal: jr})
	var uv *UnknownViewError
	if !errors.As(err, &uv) {
		t.Fatalf("err = %v, want *UnknownViewError", err)
	}

	// Shard 1's first node with a neighbour in shard 0 reads, at its
	// first such port, the planted label of that neighbour's ghost slot.
	wantNode, wantLabel := -1, int32(0)
	for v := topo.ranges[1][0]; v < topo.ranges[1][1] && wantNode < 0; v++ {
		for j := range g.Deg(v) {
			if u := g.Neighbor(v, j); u < topo.ranges[1][0] {
				slot, _ := slices.BinarySearch(sent, int32(u))
				wantNode, wantLabel = v, labels[slot]
				break
			}
		}
	}
	if uv.Node != wantNode || uv.Label != wantLabel || uv.Depth != 1 {
		t.Errorf("error names node %d, label %d, depth %d; want %d, %d, 1", uv.Node, uv.Label, uv.Depth, wantNode, wantLabel)
	}
}
