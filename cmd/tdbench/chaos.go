package main

import (
	"fmt"
	"time"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/chaos"
	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/transport"
)

// Chaos mode: the supervised UDP fleet driven through a scripted fault
// schedule — a blackholed data plane, a stalled control channel and (when a
// tdnode binary is supplied, so SIGKILL is real) a kill -9 — while a
// same-seed simulator runs in lockstep as the oracle. The run reports the
// fault windows, the supervision ledger (restarts, degraded epochs) and the
// epoch at which answers returned bit-identical to the simulator, and fails
// if the fleet never fully recovers.

const (
	chaosSeed   = 1
	chaosNodes  = 300
	chaosShards = 4
	chaosLoss   = 0.15
	// chaosEpochs is the scripted window; after it the run polls until the
	// fleet heals or chaosMaxEpochs epochs pass.
	chaosEpochs    = 40
	chaosMaxEpochs = 400
)

// chaosRunner builds one TD Count runner over the given transport (nil for
// the in-process simulator); both sides share the topology but own their
// network instance, so loss verdicts agree without sharing state.
func chaosRunner(g *topo.Graph, rings *topo.Rings, tree *topo.Tree, tr runner.Transport, stats *network.Stats) (*runner.Runner[struct{}, int64, *sketch.Sketch, float64], error) {
	return runner.New(runner.Config[struct{}, int64, *sketch.Sketch, float64]{
		Graph: g, Rings: rings, Tree: tree,
		Net:       network.New(g, network.Global{P: chaosLoss}, chaosSeed),
		Agg:       aggregate.NewCount(chaosSeed),
		Value:     func(int, int) struct{} { return struct{}{} },
		Mode:      runner.ModeTD,
		Seed:      chaosSeed,
		Transport: tr,
		Stats:     stats,
	})
}

// runChaos executes the scripted scenario. tdnode is the optional shard
// binary: with it shards run as OS processes and the schedule includes a
// real kill -9; without it shards run in-process (where Kill is a no-op)
// and the schedule sticks to blackhole and control-stall faults.
func runChaos(tdnode string) error {
	sched := chaos.Schedule{
		Seed: chaosSeed * 1000,
		Faults: []chaos.Fault{
			{Epoch: 8, Kind: chaos.BlackholeShard, Shard: 1, Epochs: 2},
			{Epoch: 20, Kind: chaos.StallControl, Shard: 0, Epochs: 2},
		},
	}
	spawn := transport.Spawner(transport.SpawnInProcess)
	if tdnode != "" {
		spawn = transport.SpawnExec(tdnode)
		sched.Faults = append(sched.Faults, chaos.Fault{Epoch: 32, Kind: chaos.KillShard, Shard: 2})
	}
	drv, err := chaos.New(sched, chaosShards)
	if err != nil {
		return err
	}
	defer drv.Close()

	g := topo.NewRandomField(chaosSeed, chaosNodes, 20, 20, topo.Point{X: 10, Y: 10}, 3.0)
	rings := topo.BuildRings(g)
	tree := topo.BuildRestrictedTree(g, rings, chaosSeed)
	topo.OpportunisticImprove(g, rings, tree, chaosSeed, 8)

	stats := network.NewStats(g.N())
	u, err := transport.NewUDP(network.New(g, network.Global{P: chaosLoss}, chaosSeed), transport.UDPOptions{
		Shards:      chaosShards,
		Stats:       stats,
		Spawn:       drv.WrapSpawner(spawn),
		AddrRewrite: drv.AddrRewrite,
		// Tight deadlines keep degraded epochs short so the scripted window
		// stays a few seconds even with a stalled control channel.
		BarrierTimeout: 500 * time.Millisecond,
		JoinTimeout:    500 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer u.Close()

	up, err := chaosRunner(g, rings, tree, u, stats)
	if err != nil {
		return err
	}
	sim, err := chaosRunner(g, rings, tree, nil, nil)
	if err != nil {
		return err
	}

	diverged, recoveredAt := 0, -1
	for epoch := 0; epoch < chaosMaxEpochs; epoch++ {
		drv.Advance(epoch)
		au := up.RunEpoch(epoch).Answer
		as := sim.RunEpoch(epoch).Answer
		if au != as {
			diverged++
			recoveredAt = -1
		} else if recoveredAt == -1 {
			recoveredAt = epoch
		}
		if epoch >= chaosEpochs && recoveredAt >= 0 && u.Health().Healthy() {
			break
		}
	}

	h := u.Health()
	c := drv.Counters()
	fmt.Printf("chaos: %d nodes over %d shards, loss %.2f, %d scripted faults\n",
		chaosNodes, chaosShards, chaosLoss, len(sched.Faults))
	fmt.Printf("chaos: noise frames dropped=%d dupped=%d blackholed=%d\n",
		c.Dropped, c.Dupped, c.Blackholed)
	for _, sh := range h.Shards {
		fmt.Printf("chaos: shard %d state=%s restarts=%d degradedEpochs=%d\n",
			sh.Shard, sh.State, sh.Restarts, sh.DegradedEpochs)
	}
	fmt.Printf("chaos: %d divergent epochs, bit-identical to the simulator again at epoch %d\n",
		diverged, recoveredAt)
	if err := u.Err(); err != nil {
		return fmt.Errorf("chaos: fleet never recovered: %w", err)
	}
	if recoveredAt < 0 || !h.Healthy() {
		return fmt.Errorf("chaos: fleet still degraded after %d epochs: %+v", chaosMaxEpochs, h)
	}
	if h.Restarts == 0 {
		return fmt.Errorf("chaos: schedule fired no restarts — faults did not bite")
	}
	return nil
}
