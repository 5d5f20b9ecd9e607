// Package shard runs the bulk-synchronous engine across shards that
// each own a contiguous node range of the graph's CSR. A worker holds
// one int32 label per local and ghost node and runs sim.LabelProgram's
// recursion on them, so each round a shard sends each peer one label
// per boundary node — labels, not views, cross the wire, and a worker
// holds no view at all. A label is a function of the node's view at the
// current depth (Elect's name the view classes, the Yamashita–Kameda
// quotient), so it is the same integer in every shard and every
// process. RunCtx runs view deciders too, through an in-process adapter
// whose labels are view ids in the caller's table (adapter.go);
// RunWorker, the worker-process face, runs label programs only. The
// data plane (Transport) is allowed to be faulty: messages may be
// dropped, duplicated, reordered or delayed, and whole shards may
// crash; a sequence/ack/retry protocol plus a per-shard journal make
// the engine produce outputs bit-identical to sim.RunBSP anyway (pinned
// by the differential suite in shard_test.go and the root package's
// TestShardedDifferential, and across real processes over loopback
// sockets by the root package's TestProcWireDifferential).
package shard

import (
	"sync"
	"time"
)

// Kind discriminates the message types of the boundary protocol and,
// above kindCtrlBase, the control-plane frames of the multi-process
// deployment (proc.go). Control kinds never pass through a Transport:
// they ride the dedicated supervisor connection.
type Kind uint8

const (
	// KindData carries one round's boundary labels from a shard to a
	// peer: Payload[i] is the label of the i-th node of the
	// deterministic ascending boundary list both endpoints compute from
	// the graph (the sender's nodes adjacent to the receiver's range).
	KindData Kind = iota + 1
	// KindAck acknowledges a KindData message, echoing Round and Seq.
	KindAck
	// KindView once shipped view bodies between worker processes.
	// Nothing sends it and the wire codec rejects it.
	//
	// Deprecated: kept only because benchmark/trace.go compiles against
	// it; remove it with that file's reference.
	KindView

	// kindCtrlBase separates the data plane from the control plane:
	// kinds above it never pass through a Transport.
	kindCtrlBase Kind = 9

	// KindHello is the first frame on a worker→supervisor control
	// connection: From is the shard, Inc its incarnation.
	KindHello Kind = 10
	// KindReport is the proc-wire form of a round report: Round,
	// Decisions, Remaining, plus the resend-counter delta in Retries.
	KindReport Kind = 11
	// KindRecovered announces a finished replay; Dur is the wall time.
	KindRecovered Kind = 12
	// KindProceed grants the barrier for Round (supervisor → worker).
	KindProceed Kind = 13
	// KindStop tells a worker every node has decided: exit cleanly.
	KindStop Kind = 14
	// KindAbort tells a worker the run failed elsewhere: exit now.
	KindAbort Kind = 15
	// KindErr reports an unrecoverable worker error; Note carries it.
	KindErr Kind = 16
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindHello:
		return "hello"
	case KindReport:
		return "report"
	case KindRecovered:
		return "recovered"
	case KindProceed:
		return "proceed"
	case KindStop:
		return "stop"
	case KindAbort:
		return "abort"
	case KindErr:
		return "err"
	}
	return "?"
}

// Message is one boundary-protocol datagram, and doubles as the frame
// of the multi-process control plane (the wire codec in wire.go
// serializes exactly the fields its Kind uses). Data messages are
// small: one int32 label per boundary node.
type Message struct {
	From    int // sender shard
	To      int // destination shard
	Kind    Kind
	Round   int     // exchange round the payload belongs to
	Seq     uint64  // per-(sender,dest) sequence number; acks echo it
	Payload []int32 // boundary labels (KindData only)

	// Views is always nil: no message carries view bodies.
	//
	// Deprecated: kept only because benchmark/trace.go compiles against
	// it; remove it with that file's reference.
	Views []WireView

	// Control-plane fields (proc wire only; see proc.go).
	Decisions []Decision    // KindReport
	Remaining int           // KindReport: local nodes still undecided
	Retries   int           // KindReport: resends since the last report
	Dur       time.Duration // KindRecovered: replay wall time
	Inc       int           // KindHello: worker incarnation
	Note      string        // KindErr: the worker's error text
}

// WireView was a view body in transit between worker processes; no
// message or journal carries one now.
//
// Deprecated: kept only because benchmark/trace.go compiles against it
// (Message.Views, Journal.Views); remove it with that file's
// references.
type WireView struct{}

// Clone deep-copies m: the returned message shares no mutable state
// (payload, decision outputs) with the original. Every path that
// re-emits a message it does not own — the engine's resend loop,
// FaultTransport's duplicate/delay/holdback deliveries — must send a
// Clone, so a receiver or journal holding the first delivery's slices
// can never observe later mutation (the Payload-aliasing bug pinned by
// TestMessageCloneAliasing).
func (m Message) Clone() Message {
	c := m
	if m.Payload != nil {
		c.Payload = append([]int32(nil), m.Payload...)
	}
	if m.Decisions != nil {
		c.Decisions = make([]Decision, len(m.Decisions))
		for i, d := range m.Decisions {
			// Non-nil even when empty: decided outputs are non-nil by
			// contract and a resent clone must be bit-identical.
			c.Decisions[i] = Decision{Node: d.Node, Round: d.Round, Output: append([]int{}, d.Output...)}
		}
	}
	return c
}

// Transport moves messages between shards. It is the faulty data plane:
// Send may silently lose the message, Recv may starve, and neither end
// learns — reliability is the caller's protocol's job. Implementations
// must be safe for concurrent use.
type Transport interface {
	// Send enqueues m for m.To. A nil error means the transport
	// accepted the message, not that it will arrive.
	Send(m Message) error
	// Recv dequeues the next message for the shard, waiting up to
	// timeout; ok is false on timeout.
	Recv(shard int, timeout time.Duration) (m Message, ok bool)
	// Reset discards every message queued for the shard — the mailbox
	// of a crashed process does not survive its restart. The supervisor
	// must call Reset strictly before respawning the shard (that
	// ordering, plus the mailbox epoch below, is what guarantees a new
	// incarnation can never read a message enqueued before the Reset).
	Reset(shard int)
}

// ChanTransport is the in-process Transport: one FIFO mailbox per shard
// guarded by a mutex, with an edge-triggered wakeup channel per mailbox.
// It is reliable and ordered; wrap it in FaultTransport for chaos.
//
// Each mailbox carries an epoch, bumped by Reset in the same critical
// section that clears the queue; entries are stamped with the epoch
// current at Send and Recv discards any entry from an older epoch.
// Entries and epoch move under one mutex, so a Send can never interleave
// with a Reset halfway: a message either dies with the old epoch or is
// enqueued entirely in the new one — the new incarnation may receive
// messages sent *after* its predecessor's Reset (a live peer retrying,
// which it must answer) but never a stale pre-crash entry. The
// supervisor ordering (Reset happens-before respawn) plus this epoch
// check is pinned by TestChanTransportResetEpoch.
type ChanTransport struct {
	mu    sync.Mutex
	box   [][]boxEntry
	epoch []uint64
	sig   []chan struct{}
}

type boxEntry struct {
	m     Message
	epoch uint64
}

// NewChanTransport returns a transport connecting shards mailboxes.
func NewChanTransport(shards int) *ChanTransport {
	t := &ChanTransport{box: make([][]boxEntry, shards), epoch: make([]uint64, shards), sig: make([]chan struct{}, shards)}
	for i := range t.sig {
		t.sig[i] = make(chan struct{}, 1)
	}
	return t
}

// Epoch returns the mailbox epoch of the shard — the number of Resets
// it has absorbed. Exposed for the transport's own tests.
func (t *ChanTransport) Epoch(shard int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch[shard]
}

func (t *ChanTransport) Send(m Message) error {
	t.mu.Lock()
	t.box[m.To] = append(t.box[m.To], boxEntry{m: m, epoch: t.epoch[m.To]})
	t.mu.Unlock()
	select {
	case t.sig[m.To] <- struct{}{}:
	default:
	}
	return nil
}

func (t *ChanTransport) Recv(shard int, timeout time.Duration) (Message, bool) {
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		q := t.box[shard]
		for len(q) > 0 && q[0].epoch != t.epoch[shard] {
			// Stale pre-Reset entry: unreachable while every enqueue and
			// Reset shares t.mu, but the check keeps the invariant local
			// rather than distributed across callers.
			copy(q, q[1:])
			q = q[:len(q)-1]
		}
		if len(q) > 0 {
			m := q[0].m
			copy(q, q[1:])
			t.box[shard] = q[:len(q)-1]
			t.mu.Unlock()
			return m, true
		}
		t.box[shard] = q
		t.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return Message{}, false
		}
		timer := time.NewTimer(wait)
		select {
		case <-t.sig[shard]:
			timer.Stop()
		case <-timer.C:
			return Message{}, false
		}
	}
}

func (t *ChanTransport) Reset(shard int) {
	t.mu.Lock()
	t.box[shard] = nil
	t.epoch[shard]++
	// Drain a pending wakeup inside the critical section, so the drain
	// cannot eat the signal of a message enqueued after the clear.
	select {
	case <-t.sig[shard]:
	default:
	}
	t.mu.Unlock()
}
