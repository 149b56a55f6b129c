package runner

import (
	"testing"

	"tributarydelta/internal/network"
	"tributarydelta/internal/sketch"
)

// TestUDPEpochAllocBudget guards the UDP barrier's control path: a
// steady-state TD collection epoch over the 4-shard deterministic fleet —
// runner, batch packing, both ends of the flush/done exchange — stays within
// a small allocation budget. The runner's share is zero (TestEpochLowAllocTD);
// what remains, measured at 20 per epoch, is the per-shard barrier goroutine
// (4) and the socket layer's syscall closures (3 per sendmmsg/recvmmsg call).
// Before the shard reply, the parent's decode target, the control frame
// buffers and the arrival timer were made per-connection scratch the same
// epoch cost 154, so the bound — 2x headroom for a round that takes an extra
// receive call or two — still trips on any one of those coming back.
func TestUDPEpochAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race job")
	}
	f := newFixture(23, 300)
	r := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 23,
		func(c *Config[struct{}, int64, *sketch.Sketch, float64]) {
			c.AdaptEvery = 1 << 30
			c.Transport = newDetUDP(t, c.Net)
		})
	epoch := 0
	for ; epoch < 50; epoch++ {
		r.RunEpoch(epoch)
	}
	n := testing.AllocsPerRun(100, func() {
		r.RunEpoch(epoch)
		epoch++
	})
	const budget = 40
	if n > budget {
		t.Fatalf("steady-state UDP epoch allocates %v per op, want <= %d", n, budget)
	}
}
