package transport_test

import (
	"strings"
	"testing"
	"time"

	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/transport"
	"tributarydelta/internal/wire"
)

// newDetUDP builds a deterministic 4-shard UDP transport over nw, failing the
// test on construction or on a sticky transport error at cleanup.
func newDetUDP(t *testing.T, nw *network.Net, stats *network.Stats) *transport.UDP {
	t.Helper()
	u, err := transport.NewUDP(nw, transport.UDPOptions{
		Shards: 4, Stats: stats,
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	t.Cleanup(func() {
		u.Close()
		if err := u.Err(); err != nil {
			t.Errorf("udp transport error: %v", err)
		}
	})
	return u
}

// TestUDPDeterministicMatchesSimulator: with the seeded loss model deciding
// Deliver verdicts and the barrier enforcing exactly-once datagram arrival,
// the multi-process runtime must produce per-epoch results identical to the
// synchronous simulator, and per-node receive accounting identical to the
// frames and bytes the simulator delivered — for seeds 1–3 across tree,
// multi-path and adaptive modes.
func TestUDPDeterministicMatchesSimulator(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		f := newFixture(seed, 250)
		for _, mode := range []runner.Mode{runner.ModeTree, runner.ModeMultipath, runner.ModeTD} {
			model := network.Global{P: 0.25}
			simNet := network.New(f.g, model, seed)
			udpNet := network.New(f.g, model, seed)
			udpStats := network.NewStats(f.g.N())
			oracle := newCountingSim(simNet)
			u := newDetUDP(t, udpNet, udpStats)
			simR := countRunner(t, f, mode, simNet, seed, oracle)
			udpR := countRunner(t, f, mode, udpNet, seed, u)
			for e := 0; e < 20; e++ {
				sim, up := simR.RunEpoch(e), udpR.RunEpoch(e)
				if sim != up {
					t.Fatalf("seed %d %s epoch %d: simulator %+v, udp transport %+v", seed, mode, e, sim, up)
				}
			}
			if udpStats.TotalRxFrames() == 0 {
				t.Fatalf("seed %d %s: udp recorded no received frames", seed, mode)
			}
			for v := range udpStats.RxFrames {
				if udpStats.RxFrames[v] != oracle.rxFrames[v] || udpStats.RxBytes[v] != oracle.rxBytes[v] {
					t.Fatalf("seed %d %s node %d: udp rx %d frames/%d bytes, simulator delivered %d frames/%d bytes",
						seed, mode, v, udpStats.RxFrames[v], udpStats.RxBytes[v], oracle.rxFrames[v], oracle.rxBytes[v])
				}
			}
			if d := udpStats.TotalDuplicates(); d != 0 {
				t.Fatalf("seed %d %s: deterministic barrier let %d duplicates through", seed, mode, d)
			}
			if l := u.Lost(); l != 0 {
				t.Fatalf("seed %d %s: deterministic udp counted %d backend losses", seed, mode, l)
			}
			u.Close()
		}
	}
}

// TestNewUDPRejectsBadOptions pins construction-time validation: a negative
// respawn budget and a backoff cap below the initial backoff are refused
// before any shard is spawned.
func TestNewUDPRejectsBadOptions(t *testing.T) {
	f := newFixture(3, 40)
	nw := network.New(f.g, network.Global{P: 0}, 3)
	for _, opts := range []transport.UDPOptions{
		{MaxRespawns: -1},
		{RespawnBackoff: time.Second, RespawnBackoffMax: time.Millisecond},
	} {
		if u, err := transport.NewUDP(nw, opts); err == nil {
			u.Close()
			t.Fatalf("NewUDP accepted %+v", opts)
		}
	}
}

// TestUDPCloseIdempotent closes the fleet twice; the second close must be a
// no-op and the transport must stay error-free.
func TestUDPCloseIdempotent(t *testing.T) {
	f := newFixture(3, 40)
	nw := network.New(f.g, network.Global{P: 0}, 3)
	u, err := transport.NewUDP(nw, transport.UDPOptions{Shards: 2})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	u.BeginEpoch(0)
	if !u.Deliver(0, 0, 2, 1, treeFrame(2)) {
		t.Fatal("lossless delivery refused")
	}
	u.EndEpoch(0)
	u.Close()
	u.Close()
	if err := u.Err(); err != nil {
		t.Fatalf("transport error after double close: %v", err)
	}
}

// TestUDPOversizeFrame pins the negotiated-size guard: a frame whose datagram
// image exceeds the per-shard limit must fail its delivery (so the runner
// accounts the loss) and set the sticky error instead of truncating or
// blowing up the socket.
func TestUDPOversizeFrame(t *testing.T) {
	f := newFixture(4, 40)
	nw := network.New(f.g, network.Global{P: 0}, 4)
	u, err := transport.NewUDP(nw, transport.UDPOptions{Shards: 2, MaxDatagram: 512})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	defer u.Close()
	big := wire.AppendEnvelope(nil, &wire.Envelope{
		Kind: wire.KindTree, From: 2, Contrib: 1, Payload: make([]byte, 1024),
	})
	u.BeginEpoch(1)
	if u.Deliver(1, 0, 2, 1, big) {
		t.Fatal("oversized frame reported delivered")
	}
	err = u.Err()
	if err == nil || !strings.Contains(err.Error(), "datagram size") {
		t.Fatalf("sticky error = %v, want negotiated-size failure", err)
	}
	// The transport stays usable for frames that fit.
	if !u.Deliver(1, 0, 2, 1, treeFrame(2)) {
		t.Fatal("small frame refused after oversize error")
	}
	u.EndEpoch(1)
}
