package transport_test

// Barrier edge cases for the coalesced data plane: a flush landing on a
// partially-filled batch, rounds whose batches straddle the negotiated
// datagram size, range-retransmission of a fully-lost round, and a shard
// killed between Deliver and the barrier (datagrams still unsent — the
// sends are deferred to EndEpoch).

import (
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/transport"
)

// TestUDPFlushMidBatch pins the seal-at-barrier path: a round small enough
// that no batch fills up must still deliver every frame exactly once — the
// barrier seals the open batch, and the whole round rides one datagram.
func TestUDPFlushMidBatch(t *testing.T) {
	f := newFixture(11, 40)
	nw := network.New(f.g, network.Global{P: 0}, 11)
	stats := network.NewStats(f.g.N())
	u, err := transport.NewUDP(nw, transport.UDPOptions{Shards: 2, Stats: stats})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	defer u.Close()

	u.BeginEpoch(0)
	const frames = 3
	for i := 0; i < frames; i++ {
		if !u.Deliver(0, 0, 2, 1+2*i, treeFrame(2)) { // odd receivers: all shard 1
			t.Fatalf("lossless delivery %d refused", i)
		}
	}
	u.EndEpoch(0)
	if err := u.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if got := stats.TotalRxFrames(); got != frames {
		t.Fatalf("barrier delivered %d unique frames, want %d", got, frames)
	}
	if io := u.IOStats(); io.SentDatagrams >= frames {
		t.Fatalf("partial batch was not coalesced: %d datagrams for %d frames", io.SentDatagrams, frames)
	}
}

// TestUDPBatchStraddlesMaxDatagram drives a round whose frames overflow the
// negotiated datagram size many times over: batches must seal at the
// boundary (no datagram may exceed it), the round spreads across several
// datagrams, and the barrier still converges to exactly-once.
func TestUDPBatchStraddlesMaxDatagram(t *testing.T) {
	f := newFixture(12, 40)
	nw := network.New(f.g, network.Global{P: 0}, 12)
	stats := network.NewStats(f.g.N())
	const maxDG = 512 // the negotiation floor
	u, err := transport.NewUDP(nw, transport.UDPOptions{
		Shards: 2, Stats: stats, MaxDatagram: maxDG,
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	defer u.Close()

	before := u.IOStats()
	u.BeginEpoch(0)
	const frames = 400
	var bytes int64
	for i := 0; i < frames; i++ {
		frame := treeFrame(2 + i%7)
		bytes += int64(len(frame))
		if !u.Deliver(0, 0, 2+i%7, 1, frame) {
			t.Fatalf("lossless delivery %d refused", i)
		}
	}
	u.EndEpoch(0)
	if err := u.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if got := stats.TotalRxFrames(); got != frames {
		t.Fatalf("barrier delivered %d unique frames, want %d", got, frames)
	}
	io := u.IOStats().Sub(before)
	if io.SentDatagrams < bytes/maxDG {
		t.Fatalf("%d bytes of frames crossed in %d datagrams — some must have exceeded the %d cap",
			bytes, io.SentDatagrams, maxDG)
	}
	if io.SentDatagrams == frames {
		t.Fatalf("no coalescing: %d datagrams for %d frames", io.SentDatagrams, frames)
	}
	if avg := io.SentBytes / io.SentDatagrams; avg > maxDG {
		t.Fatalf("average datagram %d bytes exceeds negotiated size %d", avg, maxDG)
	}
}

// firstCopyDropProxy forwards datagrams to dst but swallows the first copy
// of every distinct packet image. Against a deterministic barrier this
// deletes a round's entire first transmission — every datagram, every batch
// — and lets the range-driven retransmission (identical images) through.
type firstCopyDropProxy struct {
	ln  *net.UDPConn
	dst *net.UDPAddr

	mu      sync.Mutex
	seen    map[string]bool
	dropped int64
}

func newFirstCopyDropProxy(t *testing.T, dst string) *firstCopyDropProxy {
	t.Helper()
	addr, err := net.ResolveUDPAddr("udp", dst)
	if err != nil {
		t.Fatalf("proxy resolve %q: %v", dst, err)
	}
	ln, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &firstCopyDropProxy{ln: ln, dst: addr, seen: make(map[string]bool)}
	t.Cleanup(func() { ln.Close() })
	go p.run()
	return p
}

func (p *firstCopyDropProxy) run() {
	buf := make([]byte, 1<<16)
	for {
		n, _, err := p.ln.ReadFromUDP(buf)
		if err != nil {
			return
		}
		p.mu.Lock()
		key := string(buf[:n])
		if !p.seen[key] {
			p.seen[key] = true
			p.dropped++
			p.mu.Unlock()
			continue
		}
		p.mu.Unlock()
		_, _ = p.ln.WriteToUDP(buf[:n], p.dst)
	}
}

func (p *firstCopyDropProxy) drops() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// TestUDPRangeRetransmitFullyLostRound interposes a first-copy-drop proxy
// on every shard: each round's entire first transmission vanishes, so every
// barrier reports the full sequence space missing — one range — and must
// recover by resending whole datagram images. Answers stay identical to the
// simulator and the deterministic backend counts no losses.
func TestUDPRangeRetransmitFullyLostRound(t *testing.T) {
	seed := uint64(13)
	f := newFixture(seed, 80)
	simNet := network.New(f.g, network.Global{P: 0.2}, seed)
	udpNet := network.New(f.g, network.Global{P: 0.2}, seed)
	stats := network.NewStats(f.g.N())
	var mu sync.Mutex
	proxies := make(map[int]*firstCopyDropProxy)
	u, err := transport.NewUDP(udpNet, transport.UDPOptions{
		Shards: 4,
		Stats:  stats,
		AddrRewrite: func(shard int, addr string) string {
			p := newFirstCopyDropProxy(t, addr)
			mu.Lock()
			proxies[shard] = p
			mu.Unlock()
			return p.addrStr()
		},
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	defer u.Close()

	simR := countRunner(t, f, runner.ModeTree, simNet, seed, nil)
	udpR := countRunner(t, f, runner.ModeTree, udpNet, seed, u)
	for e := 0; e < 8; e++ {
		sim, up := simR.RunEpoch(e), udpR.RunEpoch(e)
		if sim != up {
			t.Fatalf("epoch %d: simulator %+v, retransmitting udp %+v", e, sim, up)
		}
	}
	if err := u.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if u.Lost() != 0 {
		t.Fatalf("deterministic barrier counted %d losses despite retransmission", u.Lost())
	}
	var dropped int64
	for _, p := range proxies {
		dropped += p.drops()
	}
	if dropped == 0 {
		t.Fatal("proxy dropped nothing: the retransmit path was never exercised")
	}
}

func (p *firstCopyDropProxy) addrStr() string { return p.ln.LocalAddr().String() }

// TestUDPShardDeathMidBatch kills one tdnode process after frames were
// delivered into still-open batches but before the barrier — the deferred
// sends hit a dead socket, the control channel is gone, and EndEpoch must
// come back anyway: the round's frames attributed as losses, no hang. Every
// respawn of the dead shard fails, so with a one-attempt budget the
// supervisor gives up: the shard is reported failed and the sticky error
// names it, while the survivor keeps taking rounds.
// TestUDPFleetRecoversFromKill covers the path where the respawn succeeds.
func TestUDPShardDeathMidBatch(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	f := newFixture(14, 40)
	nw := network.New(f.g, network.Global{P: 0}, 14)
	stats := network.NewStats(f.g.N())
	var mu sync.Mutex
	procs := make(map[int]transport.ShardProc)
	spawn := transport.SpawnExec(exe)
	u, err := transport.NewUDP(nw, transport.UDPOptions{
		Shards:         2,
		Stats:          stats,
		BarrierTimeout: 2 * time.Second,
		RespawnBackoff: 10 * time.Millisecond,
		MaxRespawns:    1,
		Spawn: func(controlAddr string, shard int) (transport.ShardProc, error) {
			mu.Lock()
			defer mu.Unlock()
			if _, ok := procs[shard]; ok {
				return nil, errors.New("respawn refused")
			}
			p, err := spawn(controlAddr, shard)
			if err == nil {
				procs[shard] = p
			}
			return p, err
		},
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	defer u.Close()

	// A healthy round first, so the kill demonstrably lands on a working fleet.
	u.BeginEpoch(0)
	if !u.Deliver(0, 0, 2, 1, treeFrame(2)) {
		t.Fatal("healthy delivery refused")
	}
	u.EndEpoch(0)
	if err := u.Err(); err != nil {
		t.Fatalf("healthy fleet errored: %v", err)
	}

	u.BeginEpoch(1)
	const toVictim = 5
	for i := 0; i < toVictim; i++ {
		if !u.Deliver(1, 0, 2, 1+2*i, treeFrame(2)) { // odd receivers: shard 1
			t.Fatalf("mid-batch delivery %d refused", i)
		}
	}
	if err := procs[1].Kill(); err != nil {
		t.Fatalf("kill shard 1: %v", err)
	}
	_ = procs[1].Wait()

	done := make(chan struct{})
	go func() {
		defer close(done)
		u.EndEpoch(1)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("EndEpoch hung after kill -9 mid-batch")
	}
	if got := u.Lost(); got != toVictim {
		t.Fatalf("dead shard's round attributed %d losses, want %d", got, toVictim)
	}
	if got := stats.TotalLosses(); got != toVictim {
		t.Fatalf("stats recorded %d losses, want %d", got, toVictim)
	}
	// The supervisor's single respawn attempt fails: the budget is
	// exhausted, the shard is failed for good and the sticky error is set.
	deadline := time.Now().Add(30 * time.Second)
	for u.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	err = u.Err()
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "respawn budget exhausted") {
		t.Fatalf("sticky error = %v, want shard 1 respawn budget exhausted", err)
	}
	if h := u.Health(); h.Shards[1].State != transport.ShardFailed || h.Failed != 1 || h.Shards[0].State != transport.ShardHealthy {
		t.Fatalf("health = %+v, want shard 1 failed and shard 0 healthy", h)
	}

	// The surviving shard keeps taking rounds.
	u.BeginEpoch(2)
	if !u.Deliver(2, 0, 3, 2, treeFrame(3)) { // even receiver: shard 0
		t.Fatal("survivor delivery refused")
	}
	u.EndEpoch(2)
}
