package transport_test

// Chaos battery for the UDP backend, driven by the internal/chaos package:
// seeded link noise (drop/duplicate/reorder) interposed via AddrRewrite,
// scheduled faults (kill, control stall, blackhole) applied at epoch
// boundaries, and supervision tests that SIGKILL shard processes mid-run
// and require the fleet to heal. The process tests re-exec this test
// binary as the tdnode stand-in (see TestMain in fuzz_test.go).

import (
	"os"
	"sync"
	"testing"
	"time"

	"tributarydelta/internal/chaos"
	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/transport"
)

// TestUDPChaosAccounting routes every shard's data plane through the chaos
// driver's noise proxies (10 % drop, duplicate and reorder per datagram)
// under a TD session over a lossy model. The barrier must hide the medium
// completely: answers equal the simulator's at every epoch, per-node
// receive accounting equals the frames and bytes the simulator delivered,
// the backend counts no loss and the fleet stays healthy — every dropped
// datagram is retransmitted, every duplicate deduplicated and every
// reordered one waited for. Duplicates are not pinned: a copy that lands
// after its shard's terminal barrier reply is reset unreported, so
// Stats.Duplicates is only a lower bound on the driver's count.
func TestUDPChaosAccounting(t *testing.T) {
	t.Run("batched", testUDPChaosAccounting)
}

func testUDPChaosAccounting(t *testing.T) {
	seed := uint64(7)
	f := newFixture(seed, 80)
	model := network.Global{P: 0.2}
	simNet := network.New(f.g, model, seed)
	udpNet := network.New(f.g, model, seed)
	stats := network.NewStats(f.g.N())
	oracle := newCountingSim(simNet)
	drv, err := chaos.New(chaos.Schedule{
		Seed: 1000, Drop: 0.10, Dup: 0.10, Reorder: 0.10,
	}, 4)
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	defer drv.Close()
	u, err := transport.NewUDP(udpNet, transport.UDPOptions{
		Shards:      4,
		Stats:       stats,
		AddrRewrite: drv.AddrRewrite,
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	defer u.Close()

	simR := countRunner(t, f, runner.ModeTD, simNet, seed, oracle)
	udpR := countRunner(t, f, runner.ModeTD, udpNet, seed, u)
	for e := 0; e < 12; e++ {
		drv.Advance(e)
		sim, up := simR.RunEpoch(e), udpR.RunEpoch(e)
		if sim != up {
			t.Fatalf("epoch %d: simulator %+v, chaos session %+v", e, sim, up)
		}
	}
	if err := u.Err(); err != nil {
		t.Fatalf("transport error under chaos: %v", err)
	}
	if h := u.Health(); !h.Healthy() {
		t.Fatalf("fleet unhealthy under link noise: %+v", h)
	}
	if got := u.Lost(); got != 0 {
		t.Fatalf("barrier let %d frames go lost under link noise", got)
	}

	c := drv.Counters()
	if c.Dropped == 0 || c.Dupped == 0 || c.Reordered == 0 {
		t.Fatalf("chaos driver idle: %+v", c)
	}
	if c.Blackholed != 0 {
		t.Fatalf("no blackhole scheduled, yet %d frames swallowed", c.Blackholed)
	}
	t.Logf("driver %+v; shards reported %d duplicates", c, stats.TotalDuplicates())
	if stats.TotalRxFrames() == 0 {
		t.Fatal("no receive deltas reached stats")
	}
	for v := range stats.RxFrames {
		if stats.RxFrames[v] != oracle.rxFrames[v] || stats.RxBytes[v] != oracle.rxBytes[v] {
			t.Fatalf("node %d: udp rx %d frames/%d bytes, simulator delivered %d frames/%d bytes",
				v, stats.RxFrames[v], stats.RxBytes[v], oracle.rxFrames[v], oracle.rxBytes[v])
		}
	}
}

// TestUDPFleetRecoversFromKill runs a 16-process fleet (each shard a
// SpawnExec'd re-exec of this test binary), SIGKILLs one tdnode mid-run,
// and lets the supervisor heal it. The contract: the next barrier detects
// the death within BarrierTimeout (no hang) and attributes the degraded
// epochs' traffic as losses; the supervisor respawns the shard and re-runs
// the join handshake without operator action; once the replacement is
// adopted, answers are again bit-identical to the lossless-transport
// simulator at the same epochs; Err stays nil throughout; and Health
// records the restart and the degraded epochs.
func TestUDPFleetRecoversFromKill(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	seed := uint64(9)
	f := newFixture(seed, 64)
	simNet := network.New(f.g, network.Global{P: 0.25}, seed)
	udpNet := network.New(f.g, network.Global{P: 0.25}, seed)
	stats := network.NewStats(f.g.N())
	var mu sync.Mutex
	procs := make(map[int]transport.ShardProc)
	spawn := transport.SpawnExec(exe)
	u, err := transport.NewUDP(udpNet, transport.UDPOptions{
		Shards:         16,
		Stats:          stats,
		BarrierTimeout: 2 * time.Second,
		// The supervisor respawns through this same wrapper (on its own
		// goroutine — hence the mutex), so the replacement's proc handle
		// lands in the map too.
		Spawn: func(controlAddr string, shard int) (transport.ShardProc, error) {
			p, err := spawn(controlAddr, shard)
			if err == nil {
				mu.Lock()
				procs[shard] = p
				mu.Unlock()
			}
			return p, err
		},
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	defer u.Close()

	// The deterministic loss model draws identically for both networks
	// (same seed), so the UDP session's answers match the simulator's
	// bit-for-bit at every epoch — as long as the fleet is whole.
	simR := countRunner(t, f, runner.ModeTree, simNet, seed, nil)
	udpR := countRunner(t, f, runner.ModeTree, udpNet, seed, u)
	for e := 0; e < 3; e++ {
		sim, up := simR.RunEpoch(e), udpR.RunEpoch(e)
		if sim != up {
			t.Fatalf("healthy epoch %d: simulator %+v, udp %+v", e, sim, up)
		}
	}
	if err := u.Err(); err != nil {
		t.Fatalf("healthy fleet errored: %v", err)
	}

	// Kill a shard that demonstrably receives traffic — the tree is static
	// and exactly-once receipts are in stats, so any shard with a receiving
	// node will be flushed (and its death noticed) in later epochs too.
	victim := -1
	for v := range stats.RxFrames {
		if stats.RxFrames[v] > 0 {
			victim = v % u.Shards()
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard received any traffic in the healthy epochs")
	}
	mu.Lock()
	vp := procs[victim]
	mu.Unlock()
	if err := vp.Kill(); err != nil {
		t.Fatalf("kill shard %d: %v", victim, err)
	}
	_ = vp.Wait()

	// Keep running epochs while the supervisor recovers the shard. An
	// epoch whose answers match the simulator again with the fleet healthy
	// is the recovery point; the deadline only bounds a hung fleet.
	deadline := time.Now().Add(60 * time.Second)
	recovered := -1
	for e := 3; time.Now().Before(deadline); e++ {
		sim, up := simR.RunEpoch(e), udpR.RunEpoch(e)
		if h := u.Health(); sim == up && h.Healthy() && h.Restarts > 0 {
			recovered = e
			break
		}
		time.Sleep(10 * time.Millisecond) // give the supervisor its backoff
	}
	if recovered < 0 {
		t.Fatalf("fleet did not recover from kill -9 of shard %d: health %+v", victim, u.Health())
	}
	t.Logf("recovered at epoch %d: health %+v", recovered, u.Health())

	// Recovery must hold: further epochs stay bit-identical.
	for e := recovered + 1; e < recovered+4; e++ {
		sim, up := simR.RunEpoch(e), udpR.RunEpoch(e)
		if sim != up {
			t.Fatalf("post-recovery epoch %d: simulator %+v, udp %+v", e, sim, up)
		}
	}

	if err := u.Err(); err != nil {
		t.Fatalf("recovered fault must not be a sticky error, got: %v", err)
	}
	if u.Lost() == 0 {
		t.Fatal("dead shard's traffic was not attributed as losses")
	}
	h := u.Health()
	vh := h.Shards[victim]
	if vh.State != transport.ShardHealthy || vh.Restarts < 1 || vh.DegradedEpochs < 1 {
		t.Fatalf("victim shard health %+v, want healthy with >=1 restart and >=1 degraded epoch", vh)
	}
	if vh.LastErr == "" {
		t.Fatal("victim shard health lost the failure cause")
	}
}

// TestUDPChaosScheduleRecovery drives a scheduled fault sequence — kill a
// shard, blackhole another's data plane for a window, stall a third's
// control channel past the barrier budget — through the chaos driver
// against a supervised exec fleet. The fleet must heal from every fault:
// by the end all shards are healthy again, answers match the simulator
// bit-for-bit, the sticky error never fires, and Health shows a restart
// for the killed shard.
func TestUDPChaosScheduleRecovery(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	const shards = 4
	seed := uint64(11)
	f := newFixture(seed, 48)
	simNet := network.New(f.g, network.Global{P: 0}, seed)
	udpNet := network.New(f.g, network.Global{P: 0}, seed)
	drv, err := chaos.New(chaos.Schedule{
		Faults: []chaos.Fault{
			{Epoch: 2, Kind: chaos.KillShard, Shard: 1},
			{Epoch: 6, Kind: chaos.BlackholeShard, Shard: 2, Epochs: 2},
			{Epoch: 12, Kind: chaos.StallControl, Shard: 0, Epochs: 2},
		},
	}, shards)
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	// Close the driver before the transport (LIFO defers): healing the
	// stall gates lets any still-blocked shard runtime exit under the
	// transport's teardown.
	defer drv.Close()
	u, err := transport.NewUDP(udpNet, transport.UDPOptions{
		Shards:         shards,
		BarrierTimeout: 500 * time.Millisecond,
		JoinTimeout:    500 * time.Millisecond,
		Spawn:          drv.WrapSpawner(transport.SpawnExec(exe)),
		AddrRewrite:    drv.AddrRewrite,
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	defer u.Close()

	simR := countRunner(t, f, runner.ModeTree, simNet, seed, nil)
	udpR := countRunner(t, f, runner.ModeTree, udpNet, seed, u)
	deadline := time.Now().Add(120 * time.Second)
	epoch := 0
	for ; epoch < 16; epoch++ {
		drv.Advance(epoch)
		simR.RunEpoch(epoch)
		udpR.RunEpoch(epoch)
	}
	// The schedule is exhausted; run until the fleet is whole and answers
	// line up again (the deadline only bounds a fleet that cannot heal).
	healed := false
	for ; time.Now().Before(deadline); epoch++ {
		drv.Advance(epoch)
		sim, up := simR.RunEpoch(epoch), udpR.RunEpoch(epoch)
		if sim == up && u.Health().Healthy() {
			healed = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !healed {
		t.Fatalf("fleet did not heal from the fault schedule: health %+v", u.Health())
	}
	for e := epoch + 1; e < epoch+4; e++ {
		drv.Advance(e)
		sim, up := simR.RunEpoch(e), udpR.RunEpoch(e)
		if sim != up {
			t.Fatalf("post-heal epoch %d: simulator %+v, udp %+v", e, sim, up)
		}
	}
	if err := u.Err(); err != nil {
		t.Fatalf("healed fleet must not carry a sticky error, got: %v", err)
	}
	h := u.Health()
	if h.Shards[1].Restarts < 1 {
		t.Fatalf("killed shard was never restarted: health %+v", h)
	}
	t.Logf("healed at epoch %d: health %+v", epoch, h)
}
