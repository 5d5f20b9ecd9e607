package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faults"
)

// Fault categories FaultTransport trips on its injector — the same
// countdown-budget/seeded-rate vocabulary store.FaultFS uses for disk
// chaos. Per-shard and per-link categories are derived with CrashCat
// and CutCat.
const (
	FaultDrop    = "transport.drop"    // tripped per Send: the message vanishes
	FaultDup     = "transport.dup"     // tripped per Send: the message is delivered twice
	FaultReorder = "transport.reorder" // tripped per Send: held back behind the next message to the same dest
	FaultDelay   = "transport.delay"   // tripped per Send: delivered after Delay
)

// CrashCat names the whole-shard crash category of shard s: every
// transport operation shard s performs trips it, and a hit kills the
// incarnation (Send/Recv return CrashError, the supervisor restarts).
func CrashCat(s int) string { return fmt.Sprintf("crash.%d", s) }

// CutCat names the link-partition category from shard a to shard b:
// every data-plane message a→b trips it, and a hit drops the message.
// Arm(CutCat(a,b), n) severs the next n messages; SetRate(…, 1) severs
// the link for good.
func CutCat(a, b int) string { return fmt.Sprintf("cut.%d.%d", a, b) }

// CrashError is returned from transport operations of a shard whose
// crash budget tripped: the incarnation must die and be restarted.
type CrashError struct{ Shard int }

func (e *CrashError) Error() string { return fmt.Sprintf("shard: injected crash of shard %d", e.Shard) }

// FaultTransport wraps a Transport with injector-driven chaos. The
// zero schedule passes everything through; arm categories on Faults()
// (or build a schedule with SeededChaos). Delayed and duplicated
// deliveries run on their own timers, so they can land out of order —
// and, after a Reset, into a fresh mailbox, exactly like a datagram
// that outlived its addressee.
type FaultTransport struct {
	inner Transport
	inj   *faults.Injector

	// Delay is how long a FaultDelay-tripped message is held back
	// (default 2ms).
	Delay time.Duration

	mu       sync.Mutex
	holdback map[int]*Message // FaultReorder: one held message per dest
}

// NewFaultTransport wraps inner with the injector's schedule (nil inj
// means a fresh all-pass injector with seed 0).
func NewFaultTransport(inner Transport, inj *faults.Injector) *FaultTransport {
	if inj == nil {
		inj = faults.New(0)
	}
	return &FaultTransport{inner: inner, inj: inj, Delay: 2 * time.Millisecond, holdback: map[int]*Message{}}
}

// Faults exposes the schedule for arming and for logging (String).
func (t *FaultTransport) Faults() *faults.Injector { return t.inj }

func (t *FaultTransport) delay() time.Duration {
	if t.Delay > 0 {
		return t.Delay
	}
	return 2 * time.Millisecond
}

func (t *FaultTransport) Send(m Message) error {
	if t.inj.Trip(CrashCat(m.From)) {
		return &CrashError{Shard: m.From}
	}
	if t.inj.Trip(CutCat(m.From, m.To)) {
		return nil // severed link: accepted and lost
	}
	if t.inj.Trip(FaultDrop) {
		return nil
	}
	dup := t.inj.Trip(FaultDup)
	// Every extra delivery an injection manufactures (a duplicate, a
	// delayed copy, a held-back original) is a deep Clone: the caller
	// retains its Payload buffer for resends, and an aliased
	// injected copy surfacing later — possibly on another goroutine —
	// would be a data race, not just a protocol duplicate. Pinned by
	// TestFaultTransportCloneAliasing.
	if t.inj.Trip(FaultDelay) {
		mm := m.Clone()
		time.AfterFunc(t.delay(), func() { t.inner.Send(mm) })
		if dup {
			t.inner.Send(m.Clone())
		}
		return nil
	}
	if t.inj.Trip(FaultReorder) {
		t.mu.Lock()
		prev := t.holdback[m.To]
		mm := m.Clone()
		t.holdback[m.To] = &mm
		t.mu.Unlock()
		if prev != nil {
			t.inner.Send(*prev)
		}
		if dup {
			t.inner.Send(m.Clone())
		}
		return nil
	}
	// A held-back message is released behind the first later message to
	// the same destination.
	t.mu.Lock()
	prev := t.holdback[m.To]
	delete(t.holdback, m.To)
	t.mu.Unlock()
	if err := t.inner.Send(m); err != nil {
		return err
	}
	if prev != nil {
		t.inner.Send(*prev)
	}
	if dup {
		t.inner.Send(m.Clone())
	}
	return nil
}

func (t *FaultTransport) Recv(shard int, timeout time.Duration) (Message, bool) {
	// Crash budgets are tripped on Send only: a shard that is due to
	// crash dies at its next outbound operation, which every exchange
	// round has — so crash ordinals count a deterministic op stream and
	// a schedule replays exactly.
	return t.inner.Recv(shard, timeout)
}

func (t *FaultTransport) Reset(shard int) {
	t.inner.Reset(shard)
	t.mu.Lock()
	delete(t.holdback, shard)
	t.mu.Unlock()
}

// SeededChaos builds a replayable chaos schedule for a run over shards:
// moderate drop/dup/reorder/delay rates, and for a seed-chosen subset
// of shards one crash apiece at a seed-chosen operation count. The
// whole schedule replays from the seed; log Faults().String() on
// failure.
func SeededChaos(seed int64, shards int) *faults.Injector {
	inj := faults.New(seed)
	inj.SetRate(FaultDrop, 0.06)
	inj.SetRate(FaultDup, 0.05)
	inj.SetRate(FaultReorder, 0.05)
	inj.SetRate(FaultDelay, 0.03)
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	for s := 0; s < shards; s++ {
		if rng.Intn(2) == 0 {
			inj.ArmAfter(CrashCat(s), 2+rng.Intn(60), 1)
		}
	}
	return inj
}

// SeededChaosSpec is SeededChaos as a faults.ParseSchedule spec — the
// form a schedule takes to cross a process boundary (shardd's -chaos
// flag). Same rates, same seed-chosen crash points, so the in-process
// and multi-process chaos suites drill the same weather.
func SeededChaosSpec(seed int64, shards int) string {
	spec := fmt.Sprintf("%s=0.06,%s=0.05,%s=0.05,%s=0.03", FaultDrop, FaultDup, FaultReorder, FaultDelay)
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	for s := 0; s < shards; s++ {
		if rng.Intn(2) == 0 {
			spec += fmt.Sprintf(",%s@%d", CrashCat(s), 2+rng.Intn(60))
		}
	}
	return spec
}
