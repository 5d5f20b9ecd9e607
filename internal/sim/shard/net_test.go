package shard

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// netGroup builds a loopback group for the test, with cleanup.
func netGroup(t *testing.T, network string, shards int, inj *faults.Injector) *NetGroup {
	t.Helper()
	grp, err := NewNetGroup(network, t.TempDir(), shards, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { grp.Close() })
	return grp
}

// TestNetTransportRoundTrip sends every message kind the data plane
// carries across real sockets and checks bit-identical delivery.
func TestNetTransportRoundTrip(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			grp := netGroup(t, network, 2, nil)
			msgs := []Message{
				{From: 0, To: 1, Kind: KindData, Round: 1, Seq: 1, Payload: []int32{9, -8, 7}},
				{From: 1, To: 0, Kind: KindAck, Round: 1, Seq: 1},
			}
			for _, m := range msgs {
				if err := grp.Send(m); err != nil {
					t.Fatal(err)
				}
				got, ok := grp.Recv(m.To, 2*time.Second)
				if !ok {
					t.Fatalf("%v frame never arrived", m.Kind)
				}
				if !reflect.DeepEqual(got, m) {
					t.Fatalf("delivered %+v, want %+v", got, m)
				}
			}
		})
	}
}

// TestNetTransportSocketFaults pins the injector hooks at the socket
// layer: a tripped SockDrop loses the frame silently, a tripped
// SockClose kills the cached conn (the next send re-dials), and in both
// cases later traffic flows.
func TestNetTransportSocketFaults(t *testing.T) {
	inj := faults.New(3)
	grp := netGroup(t, "tcp", 2, inj)
	inj.Arm(SockDrop, 1)
	grp.Send(Message{From: 0, To: 1, Kind: KindData, Round: 1})
	if _, ok := grp.Recv(1, 50*time.Millisecond); ok {
		t.Fatal("sock.drop frame was delivered")
	}
	grp.Send(Message{From: 0, To: 1, Kind: KindData, Round: 2})
	if m, ok := grp.Recv(1, 2*time.Second); !ok || m.Round != 2 {
		t.Fatalf("post-drop delivery: ok=%v round=%d", ok, m.Round)
	}

	inj.Arm(SockClose, 1)
	grp.Send(Message{From: 0, To: 1, Kind: KindData, Round: 3}) // dies with the conn
	grp.Send(Message{From: 0, To: 1, Kind: KindData, Round: 4}) // re-dials
	if m, ok := grp.Recv(1, 2*time.Second); !ok || m.Round != 4 {
		t.Fatalf("post-close delivery: ok=%v round=%d", ok, m.Round)
	}
}

// TestNetTransportTornFrame writes garbage and a torn frame on raw
// connections to an endpoint: each kills only its own connection, and
// well-formed traffic keeps flowing.
func TestNetTransportTornFrame(t *testing.T) {
	grp := netGroup(t, "tcp", 2, nil)
	ep := grp.eps[1]

	garbage, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	garbage.Write([]byte{0x04, 0x00, 0x00, 0x00, 'j', 'u', 'n', 'k'}) // framed garbage body
	garbage.Write([]byte{0xFF, 0xFF})                                 // then a torn header
	garbage.Close()

	grp.Send(Message{From: 0, To: 1, Kind: KindData, Round: 5})
	if m, ok := grp.Recv(1, 2*time.Second); !ok || m.Round != 5 {
		t.Fatalf("delivery after a torn peer conn: ok=%v round=%d", ok, m.Round)
	}
}

// TestNetTransportUnixStaleSocket pins the restart discipline of unix
// endpoints: a successor reclaims its predecessor's stale socket file
// at bind time, and the predecessor's late Close must NOT unlink the
// successor's socket out from under it (the unlink-on-close race that
// wedged restarted workers until peers' dials timed out forever).
func TestNetTransportUnixStaleSocket(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{filepath.Join(dir, "shard-0.sock"), filepath.Join(dir, "shard-1.sock")}

	old, err := NewNetTransport(0, "unix", addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The replacement binds while the old incarnation is still winding
	// down — exactly the SIGKILL-restart interleaving.
	successor, err := NewNetTransport(0, "unix", addrs, nil)
	if err != nil {
		t.Fatalf("successor could not reclaim the stale socket: %v", err)
	}
	defer successor.Close()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(addrs[0]); err != nil {
		t.Fatalf("predecessor Close unlinked the successor's socket: %v", err)
	}

	peer, err := NewNetTransport(1, "unix", addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := peer.Send(Message{From: 1, To: 0, Kind: KindData, Round: 9}); err != nil {
		t.Fatal(err)
	}
	if m, ok := successor.Recv(0, 2*time.Second); !ok || m.Round != 9 {
		t.Fatalf("successor unreachable after predecessor Close: ok=%v round=%d", ok, m.Round)
	}
}

// TestNetTransportWaitsForBusyAddress pins the restart discipline of
// tcp endpoints: a successor that starts while its crashed predecessor
// still holds the listen address waits for it instead of failing, since
// a worker that exits before its Hello is invisible to the supervisor.
func TestNetTransportWaitsForBusyAddress(t *testing.T) {
	old, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{old.Addr().String(), "127.0.0.1:1"}
	go func() {
		time.Sleep(100 * time.Millisecond) // the predecessor winding down
		old.Close()
	}()
	successor, err := NewNetTransport(0, "tcp", addrs, nil)
	if err != nil {
		t.Fatalf("successor gave up on its predecessor's address: %v", err)
	}
	successor.Close()
}

// TestShardedOverSockets is the loopback differential: the in-process
// engine runs its boundary protocol over real TCP and unix-socket
// connections and must stay bit-identical to RunBSP.
func TestShardedOverSockets(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid45":   graph.Grid(4, 5),
		"random60": graph.RandomConnected(60, 45, 11),
	}
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		for _, network := range []string{"tcp", "unix"} {
			for name, g := range graphs {
				want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 3} {
					grp := netGroup(t, network, shards, nil)
					got, stats, err := Run(view.NewTable(), g, f, Options{Shards: shards, Transport: grp})
					label := fmt.Sprintf("%s/%s/shards=%d", network, name, shards)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSame(t, label, want, got)
					if stats.Crashes != 0 {
						t.Errorf("%s: clean socket run reports %d crashes", label, stats.Crashes)
					}
				}
			}
		}
	})
}

// TestShardedOverSocketsUnderChaos stacks protocol chaos
// (drop/dup/reorder/delay/crash via FaultTransport) on socket chaos
// (sock.drop, sock.close) over real loopback connections: the engine
// must still reproduce RunBSP bit-for-bit, restarts included.
func TestShardedOverSocketsUnderChaos(t *testing.T) {
	g := graph.RandomConnected(60, 45, 11)
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, network := range []string{"tcp", "unix"} {
			for seed := int64(1); seed <= 2; seed++ {
				const shards = 3
				inj := SeededChaos(seed, shards)
				inj.SetRate(SockDrop, 0.05)
				inj.SetRate(SockClose, 0.02)
				grp := netGroup(t, network, shards, inj)
				ft := NewFaultTransport(grp, inj)
				got, stats, err := Run(view.NewTable(), g, f, Options{
					Shards: shards, Transport: ft, Seed: seed,
				})
				label := fmt.Sprintf("%s/seed=%d [%s]", network, seed, inj)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSame(t, label, want, got)
				if stats.Recoveries > stats.Crashes {
					t.Errorf("%s: %d recoveries exceed %d crashes", label, stats.Recoveries, stats.Crashes)
				}
			}
		}
	})
}
