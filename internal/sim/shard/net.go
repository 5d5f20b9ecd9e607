package shard

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faults"
)

// Socket-layer fault categories a NetTransport trips on its injector —
// chaos below the boundary protocol, in the same countdown/seeded-rate
// vocabulary FaultTransport and store.FaultFS use. FaultTransport can
// still be stacked on top for protocol-level chaos (dup, reorder,
// crash); the socket categories model what only a real wire has: frames
// lost in flight and connections dying under the protocol.
const (
	// SockDrop drops the frame at the sender's socket: accepted, never
	// written. Indistinguishable from in-flight loss to the protocol.
	SockDrop = "sock.drop"
	// SockClose closes the sender's connection to the destination
	// before the write; the frame is lost and the next send re-dials.
	// Reader sides see the peer vanish mid-stream — the torn-frame path.
	SockClose = "sock.close"
)

// NetTransport is a Transport endpoint backed by real sockets: it
// listens for peers on its own address and lazily dials one outbound
// connection per peer, framing Messages with wire.go's codec. One
// NetTransport serves exactly one shard — the normal deployment is one
// per worker process (cmd/shardd), with NetGroup bundling several into
// a single-process Transport for tests.
//
// Delivery contract: lossy, like every Transport. A frame is dropped —
// never blocks the engine, never surfaces an error — when the peer
// cannot be dialed, the write fails, the injector trips a socket fault,
// or the local inbox is full; a torn or malformed frame kills the
// whole connection (readFrame cannot resynchronize mid-stream) and
// both ends drop what was in flight. The engine's seq/ack/retry
// protocol owns reliability; the transport only owns reconnection,
// which it gets for free by dialing lazily per send.
//
// Reset is a no-op beyond draining the local inbox: a crashed worker
// process takes its mailbox with it, so the restart discipline the
// in-process ChanTransport needs an epoch for is physical here.
type NetTransport struct {
	self    int
	network string // "tcp" or "unix"
	addrs   []string
	inj     *faults.Injector

	ln    net.Listener
	inbox chan Message

	mu      sync.Mutex
	conns   map[int]net.Conn // outbound, by destination shard
	inbound map[net.Conn]struct{}

	closed atomic.Bool
	wg     sync.WaitGroup
}

// dialTimeout bounds one lazy dial; a peer that is down (crashed
// worker) costs the sender at most this per resend attempt.
const dialTimeout = 500 * time.Millisecond

// netInboxCap bounds the local mailbox; a full inbox drops frames,
// which the protocol absorbs like any other loss.
const netInboxCap = 4096

// NewNetTransport listens on addrs[self] (network "tcp" or "unix") and
// returns the endpoint for that shard. addrs must index every shard's
// data-plane address; the other entries are dialed lazily on first
// send. A nil injector means no socket chaos. Close releases the
// listener and every connection.
func NewNetTransport(self int, network string, addrs []string, inj *faults.Injector) (*NetTransport, error) {
	if self < 0 || self >= len(addrs) {
		return nil, fmt.Errorf("shard: net transport self %d out of range of %d addrs", self, len(addrs))
	}
	if network == "unix" {
		// A SIGKILLed predecessor leaves its socket file behind; the
		// restarted process owns the address and reclaims it.
		if err := os.Remove(addrs[self]); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("shard: unlink stale socket: %w", err)
		}
	}
	ln, err := listenRetry(network, addrs[self])
	if err != nil {
		return nil, fmt.Errorf("shard: listen %s %s: %w", network, addrs[self], err)
	}
	return newNetTransport(self, network, addrs, ln, inj), nil
}

// listenRetry listens on addr, retrying for up to five seconds while
// the address is in use. A restarted worker can start before its
// crashed predecessor has closed its listener — the predecessor's
// control connection closes first, and its loss is what makes the
// supervisor restart the shard — and a worker that gave up here would
// exit before its Hello, leaving the supervisor waiting for it.
func listenRetry(network, addr string) (net.Listener, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen(network, addr)
		if err == nil || !errors.Is(err, syscall.EADDRINUSE) || time.Now().After(deadline) {
			return ln, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func newNetTransport(self int, network string, addrs []string, ln net.Listener, inj *faults.Injector) *NetTransport {
	if inj == nil {
		inj = faults.New(0)
	}
	if ul, ok := ln.(*net.UnixListener); ok {
		// Never unlink on close: a dying incarnation's deferred Close
		// would otherwise race its own restarted successor — which has
		// already unlinked the stale file and rebound the same path —
		// and delete the successor's socket out from under it, leaving
		// every peer dialing a path that no longer exists. Stale files
		// are reclaimed at bind time (NewNetTransport) instead.
		ul.SetUnlinkOnClose(false)
	}
	t := &NetTransport{self: self, network: network, addrs: append([]string(nil), addrs...),
		inj: inj, ln: ln, inbox: make(chan Message, netInboxCap),
		conns: map[int]net.Conn{}, inbound: map[net.Conn]struct{}{}}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Addr returns the actual listen address (resolves ":0" ports).
func (t *NetTransport) Addr() string { return t.ln.Addr().String() }

// Faults exposes the socket-chaos injector.
func (t *NetTransport) Faults() *faults.Injector { return t.inj }

func (t *NetTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Register under mu so Close either sees the conn (and closes
		// it) or has already marked the endpoint closed (and we do).
		// The wg.Add is safe against a concurrent Close's Wait because
		// acceptLoop itself still holds a slot.
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			continue
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop drains frames from one inbound connection into the inbox
// until the stream dies. Any read or decode error is terminal for the
// connection: a length-prefixed stream cannot be resynchronized, so the
// reader drops the conn and lets the peer's next send re-dial.
func (t *NetTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	for {
		m, err := readFrame(br)
		if err != nil {
			return
		}
		if t.closed.Load() {
			return
		}
		select {
		case t.inbox <- m:
		default:
			// Full inbox: drop the frame. The sender retries; blocking
			// here would instead stall every peer sharing the conn.
		}
	}
}

// conn returns the cached outbound connection to dest, dialing if
// needed. A dial failure is returned to Send, which treats it as loss.
func (t *NetTransport) conn(dest int) (net.Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[dest]; ok {
		return c, nil
	}
	c, err := net.DialTimeout(t.network, t.addrs[dest], dialTimeout)
	if err != nil {
		return nil, err
	}
	t.conns[dest] = c
	return c, nil
}

func (t *NetTransport) dropConn(dest int, c net.Conn) {
	t.mu.Lock()
	if t.conns[dest] == c {
		delete(t.conns, dest)
	}
	t.mu.Unlock()
	c.Close()
}

func (t *NetTransport) Send(m Message) error {
	if t.closed.Load() {
		return nil
	}
	if dest := m.To; dest < 0 || dest >= len(t.addrs) {
		return fmt.Errorf("shard: net transport send to unknown shard %d", m.To)
	}
	if t.inj.Trip(SockDrop) {
		return nil
	}
	if t.inj.Trip(SockClose) {
		t.mu.Lock()
		c := t.conns[m.To]
		delete(t.conns, m.To)
		t.mu.Unlock()
		if c != nil {
			c.Close()
		}
		return nil // the frame dies with the conn
	}
	c, err := t.conn(m.To)
	if err != nil {
		return nil // peer down: loss, the protocol retries
	}
	// Serialize frame writes per conn under mu — exchanges send from one
	// goroutine per shard, but barrier servicing and exchange resends of
	// different rounds may interleave on the shared conn.
	t.mu.Lock()
	if t.conns[m.To] != c {
		t.mu.Unlock()
		return nil // conn torn down between lookup and write
	}
	// A write deadline bounds how long a stalled peer (full socket
	// buffer, half-dead conn) can hold the endpoint's send path; on
	// expiry the conn is dropped and the frame counts as lost.
	c.SetWriteDeadline(time.Now().Add(time.Second)) //nolint:errcheck // deadline on a live conn
	err = writeFrame(c, m)
	t.mu.Unlock()
	if err != nil {
		t.dropConn(m.To, c)
	}
	return nil
}

func (t *NetTransport) Recv(shard int, timeout time.Duration) (Message, bool) {
	if shard != t.self {
		return Message{}, false
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m := <-t.inbox:
		return m, true
	case <-timer.C:
		return Message{}, false
	}
}

// Reset drains the local inbox. In the multi-process deployment the
// supervisor never calls it — a crashed process's inbox dies with the
// process — but NetGroup's in-process restarts go through here.
func (t *NetTransport) Reset(shard int) {
	if shard != t.self {
		return
	}
	for {
		select {
		case <-t.inbox:
		default:
			return
		}
	}
}

// Close shuts the endpoint: listener first (no new inbound), then every
// connection — outbound AND inbound. Inbound conns are owned by the
// peers that dialed them, but their readLoops block in readFrame until
// the stream dies; if Close left them to the peers, an endpoint could
// never shut down while any peer stayed up. Safe to call twice.
func (t *NetTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := t.ln.Close()
	t.mu.Lock()
	for d, c := range t.conns {
		c.Close()
		delete(t.conns, d)
	}
	for c := range t.inbound {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	// Unix socket files are deliberately left behind (see the
	// SetUnlinkOnClose note above); callers own the directory.
	return err
}

// NetGroup runs every shard's NetTransport endpoint inside one process
// and presents them as a single Transport, so the in-process engine
// (and the -race differential suite) can run the boundary protocol over
// real loopback sockets without spawning worker processes: Send routes
// through the sending shard's endpoint, Recv reads the receiving
// shard's inbox, and every frame crosses an actual TCP or unix-socket
// connection in between.
type NetGroup struct {
	eps []*NetTransport
}

// NewNetGroup builds shards loopback endpoints on network "tcp"
// (127.0.0.1, kernel-chosen ports) or "unix" (socket files under dir,
// which must exist and outlive the group). inj, shared by every
// endpoint, injects socket chaos; nil means none. Close the group to
// release all sockets.
func NewNetGroup(network, dir string, shards int, inj *faults.Injector) (*NetGroup, error) {
	addrs := make([]string, shards)
	lns := make([]net.Listener, shards)
	fail := func(err error) (*NetGroup, error) {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
		return nil, err
	}
	for s := 0; s < shards; s++ {
		var spec string
		switch network {
		case "tcp":
			spec = "127.0.0.1:0"
		case "unix":
			spec = fmt.Sprintf("%s/shard-%d.sock", dir, s)
		default:
			return fail(fmt.Errorf("shard: net group network %q (want tcp or unix)", network))
		}
		ln, err := net.Listen(network, spec)
		if err != nil {
			return fail(fmt.Errorf("shard: listen %s %s: %w", network, spec, err))
		}
		lns[s] = ln
		addrs[s] = ln.Addr().String()
	}
	g := &NetGroup{eps: make([]*NetTransport, shards)}
	for s := 0; s < shards; s++ {
		g.eps[s] = newNetTransport(s, network, addrs, lns[s], inj)
	}
	return g, nil
}

func (g *NetGroup) Send(m Message) error {
	if m.From < 0 || m.From >= len(g.eps) {
		return fmt.Errorf("shard: net group send from unknown shard %d", m.From)
	}
	return g.eps[m.From].Send(m)
}

func (g *NetGroup) Recv(shard int, timeout time.Duration) (Message, bool) {
	if shard < 0 || shard >= len(g.eps) {
		return Message{}, false
	}
	return g.eps[shard].Recv(shard, timeout)
}

func (g *NetGroup) Reset(shard int) {
	if shard >= 0 && shard < len(g.eps) {
		g.eps[shard].Reset(shard)
	}
}

// Close releases every endpoint's sockets.
func (g *NetGroup) Close() error {
	var first error
	for _, ep := range g.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
