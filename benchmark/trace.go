package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/store"
	"repro/internal/view"
)

// span is one timed call into a layer. The benchmark records spans
// around its own calls into the program's packages and through the
// decorators below; the program itself carries no instrumentation.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"` // 0 for a root
	Name   string           `json:"name"`
	Req    int64            `json:"req"` // request index (advised), else 0
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so an untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	tr     *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

func (t *tracer) start(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{tr: t, id: t.newID(), parent: parent, name: name, start: time.Now()}
}

func (o openSpan) end(counts map[string]int64) {
	if o.tr != nil {
		o.tr.add(o.id, o.parent, o.name, 0, o.start, time.Now(), counts)
	}
}

// record adds a span that has already ended.
func (t *tracer) record(name string, parent, req int64, start, end time.Time, counts map[string]int64) {
	if t != nil {
		t.add(t.newID(), parent, name, req, start, end, counts)
	}
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(id, parent int64, name string, req int64, start, end time.Time, counts map[string]int64) {
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Counts: counts}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// allocated returns the bytes allocated so far when t records, else 0:
// only a traced pass pays for ReadMemStats inside a unit.
func (t *tracer) allocated() int64 {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// done returns the recorded spans ordered by id.
func (t *tracer) done() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spansUnder groups by name the spans whose root span is named root.
func spansUnder(spans []span, root string) map[string][]span {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := map[string][]span{}
	for _, s := range spans {
		r := s
		for r.Parent != 0 {
			p, ok := byID[r.Parent]
			if !ok {
				break
			}
			r = p
		}
		if r.Name == root && r.Parent == 0 && s.ID != r.ID {
			out[s.Name] = append(out[s.Name], s)
		}
	}
	return out
}

func totalDur(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

func sumCount(ss []span, key string) int64 {
	var n int64
	for _, s := range ss {
		n += s.Counts[key]
	}
	return n
}

func durs(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// decideCounter wraps a sim.Factory so that every decider counts its
// Decide calls and the time spent in them.
type decideCounter struct {
	mu sync.Mutex
	ds []*countedDecider
}

type countedDecider struct {
	inner sim.Decider
	calls int64
	ns    int64
}

// Decide is called for one node by one goroutine at a time, with the
// engine's round barrier between calls, so the counters need no lock.
func (d *countedDecider) Decide(r int, b *view.View) ([]int, bool) {
	t0 := time.Now()
	out, done := d.inner.Decide(r, b)
	d.ns += int64(time.Since(t0))
	d.calls++
	return out, done
}

func (c *decideCounter) wrap(f sim.Factory) sim.Factory {
	return func(simID, deg int) sim.Decider {
		d := &countedDecider{inner: f(simID, deg)}
		c.mu.Lock()
		c.ds = append(c.ds, d)
		c.mu.Unlock()
		return d
	}
}

// totals sums the counters; call it after the engine has returned.
func (c *decideCounter) totals() (calls, ns int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.ds {
		calls += d.calls
		ns += d.ns
	}
	return calls, ns
}

// countingTransport counts the boundary protocol's traffic and the time
// shards spend waiting in Recv.
type countingTransport struct {
	inner                      shard.Transport
	sends, payloadWords, views atomic.Int64
	recvWaitNS, recvTimeouts   atomic.Int64
}

func (t *countingTransport) Send(m shard.Message) error {
	if m.Kind == shard.KindData || m.Kind == shard.KindView {
		t.sends.Add(1)
		t.payloadWords.Add(int64(len(m.Payload)))
		t.views.Add(int64(len(m.Views)))
	}
	return t.inner.Send(m)
}

func (t *countingTransport) Recv(s int, timeout time.Duration) (shard.Message, bool) {
	t0 := time.Now()
	m, ok := t.inner.Recv(s, timeout)
	t.recvWaitNS.Add(int64(time.Since(t0)))
	if !ok {
		t.recvTimeouts.Add(1)
	}
	return m, ok
}

func (t *countingTransport) Reset(s int) { t.inner.Reset(s) }

// timingJournal counts journal writes, the view bodies they persist and
// the time they take.
type timingJournal struct {
	inner             shard.Journal
	writes, views, ns atomic.Int64
}

func (j *timingJournal) timed(f func() error) error {
	t0 := time.Now()
	err := f()
	j.ns.Add(int64(time.Since(t0)))
	j.writes.Add(1)
	return err
}

func (j *timingJournal) Checkpoint(s int, rec shard.Record) error {
	return j.timed(func() error { return j.inner.Checkpoint(s, rec) })
}

func (j *timingJournal) Ghosts(s int, gr shard.GhostRecord) error {
	return j.timed(func() error { return j.inner.Ghosts(s, gr) })
}

func (j *timingJournal) Views(s, peer int, vs []shard.WireView) error {
	j.views.Add(int64(len(vs)))
	return j.timed(func() error { return j.inner.Views(s, peer, vs) })
}

func (j *timingJournal) Restore(s int) (shard.Restored, error) { return j.inner.Restore(s) }

// tracedFS records a span per store read, write and rename, under the
// span held in parent (the load window while it runs).
type tracedFS struct {
	inner  store.FS
	tr     *tracer
	parent atomic.Int64
}

func (f *tracedFS) op(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	f.tr.record(name, f.parent.Load(), 0, t0, time.Now(), nil)
	return err
}

func (f *tracedFS) MkdirAll(dir string) error            { return f.inner.MkdirAll(dir) }
func (f *tracedFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f *tracedFS) Remove(path string) error             { return f.inner.Remove(path) }

func (f *tracedFS) ReadFile(path string) ([]byte, error) {
	var data []byte
	err := f.op("store.read", func() error {
		var err error
		data, err = f.inner.ReadFile(path)
		return err
	})
	return data, err
}

func (f *tracedFS) WriteFile(path string, data []byte) error {
	return f.op("store.write", func() error { return f.inner.WriteFile(path, data) })
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	return f.op("store.rename", func() error { return f.inner.Rename(oldpath, newpath) })
}
