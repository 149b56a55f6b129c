package runner

import (
	"testing"

	"tributarydelta/internal/network"
	"tributarydelta/internal/transport"
)

// newDetUDP opens a deterministic 4-shard in-process UDP fleet over nw,
// closed — and checked for a sticky transport error — at test cleanup.
func newDetUDP(t *testing.T, nw *network.Net, noBatch bool) *transport.UDP {
	t.Helper()
	u, err := transport.NewUDP(nw, transport.UDPOptions{
		Deterministic: true, Shards: 4, NoBatching: noBatch,
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	t.Cleanup(func() {
		u.Close()
		if err := u.Err(); err != nil {
			t.Errorf("udp transport error after run: %v", err)
		}
	})
	return u
}

// TestGoldenAnswersUDPTransport re-runs the golden workloads (4 schemes ×
// seeds 1–3) with the multi-process UDP transport in deterministic mode —
// real loopback datagrams, an in-process shard fleet, the barrier protocol
// — and compares against the very same golden file, with datagram
// coalescing both on and off. The Deliver verdict comes from the same seeded loss hash as the
// simulator and the chan transport, and the exactly-once barrier guarantees
// the data plane keeps up, so not a single answer may move — batched or not.
func TestGoldenAnswersUDPTransport(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		name := "batched"
		if noBatch {
			name = "unbatched"
		}
		t.Run(name, func(t *testing.T) {
			got := goldenRuns(t, func(nw *network.Net) Transport {
				return newDetUDP(t, nw, noBatch)
			})
			compareGolden(t, got)
		})
	}
}
