package shard

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestMessageCloneAliasing pins Message.Clone's deep-copy contract: a
// clone shares no mutable state with the original, so a resend path
// that mutates (or reuses) its buffers can never corrupt a delivery
// already sitting in a mailbox or a journal.
func TestMessageCloneAliasing(t *testing.T) {
	m := Message{
		From: 0, To: 1, Kind: KindData, Round: 2, Seq: 5,
		Payload:   []int32{10, -20, 30},
		Decisions: []Decision{{Node: 4, Round: 2, Output: []int{1, -2}}},
	}
	c := m.Clone()
	if !reflect.DeepEqual(c, m) {
		t.Fatalf("clone %+v differs from original %+v", c, m)
	}
	m.Payload[0] = 99
	m.Decisions[0].Output[0] = -55
	if c.Payload[0] != 10 {
		t.Error("clone payload aliases the original")
	}
	if c.Decisions[0].Output[0] != 1 {
		t.Error("clone decision outputs alias the original")
	}
}

// TestFaultTransportCloneAliasing pins the injection paths that
// manufacture extra deliveries — delay, holdback (reorder) and dup — to
// deep clones: the sender retains its Payload buffer for resends, and a
// mutation after Send must never surface in an injected copy delivered
// later.
func TestFaultTransportCloneAliasing(t *testing.T) {
	t.Run("delay", func(t *testing.T) {
		ft := NewFaultTransport(NewChanTransport(2), faults.New(1))
		ft.Faults().Arm(FaultDelay, 1)
		payload := []int32{1, 2, 3}
		ft.Send(Message{From: 0, To: 1, Kind: KindData, Round: 1, Payload: payload})
		payload[0] = 99 // sender reuses its buffer while the copy is in flight
		m, ok := ft.Recv(1, time.Second)
		if !ok || m.Payload[0] != 1 {
			t.Fatalf("delayed delivery ok=%v payload=%v, want [1 2 3]", ok, m.Payload)
		}
	})
	t.Run("holdback", func(t *testing.T) {
		ft := NewFaultTransport(NewChanTransport(2), faults.New(1))
		ft.Faults().Arm(FaultReorder, 1)
		payload := []int32{4, 5}
		ft.Send(Message{From: 0, To: 1, Kind: KindData, Round: 1, Payload: payload}) // held back
		payload[0] = 99
		ft.Send(Message{From: 0, To: 1, Kind: KindData, Round: 2}) // releases round 1 behind itself
		first, _ := ft.Recv(1, time.Second)
		second, ok := ft.Recv(1, time.Second)
		if !ok || first.Round != 2 || second.Round != 1 {
			t.Fatalf("reorder delivered %d then %d (ok=%v), want 2 then 1", first.Round, second.Round, ok)
		}
		if second.Payload[0] != 4 {
			t.Fatalf("held-back delivery payload %v aliases the sender's buffer", second.Payload)
		}
	})
	t.Run("dup", func(t *testing.T) {
		ft := NewFaultTransport(NewChanTransport(2), faults.New(1))
		ft.Faults().Arm(FaultDup, 1)
		payload := []int32{7}
		ft.Send(Message{From: 0, To: 1, Kind: KindData, Round: 1, Payload: payload})
		payload[0] = 99
		ft.Recv(1, time.Second) // the pass-through original
		dup, ok := ft.Recv(1, time.Second)
		if !ok || dup.Payload[0] != 7 {
			t.Fatalf("duplicate delivery ok=%v payload=%v, want [7]", ok, dup.Payload)
		}
	})
}

// TestChanTransportResetEpoch pins the mailbox-epoch discipline: an
// entry stamped with a pre-Reset epoch must never be delivered to the
// new incarnation, and post-Reset sends flow normally. The stale entry
// is hand-planted (the shared mutex makes the interleaving unreachable
// through the public API; the epoch check keeps the invariant enforced
// locally rather than distributed across callers).
func TestChanTransportResetEpoch(t *testing.T) {
	tr := NewChanTransport(2)
	if got := tr.Epoch(1); got != 0 {
		t.Fatalf("fresh epoch = %d, want 0", got)
	}
	tr.Reset(1)
	if got := tr.Epoch(1); got != 1 {
		t.Fatalf("post-reset epoch = %d, want 1", got)
	}

	tr.mu.Lock()
	tr.box[1] = append(tr.box[1], boxEntry{m: Message{From: 0, To: 1, Round: 7}, epoch: 0})
	tr.mu.Unlock()
	if m, ok := tr.Recv(1, 5*time.Millisecond); ok {
		t.Fatalf("stale-epoch entry delivered: %+v", m)
	}

	tr.Send(Message{From: 0, To: 1, Round: 8})
	if m, ok := tr.Recv(1, time.Second); !ok || m.Round != 8 {
		t.Fatalf("current-epoch delivery broken: ok=%v round=%d", ok, m.Round)
	}

	// A stale entry queued behind a live one is skipped, not just dropped
	// from the head.
	tr.Send(Message{From: 0, To: 1, Round: 9})
	tr.mu.Lock()
	tr.box[1] = append([]boxEntry{{m: Message{Round: 1}, epoch: 0}}, tr.box[1]...)
	tr.mu.Unlock()
	if m, ok := tr.Recv(1, time.Second); !ok || m.Round != 9 {
		t.Fatalf("recv past a stale head: ok=%v round=%d, want 9", ok, m.Round)
	}
}
