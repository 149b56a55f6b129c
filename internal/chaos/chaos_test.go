package chaos_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"tributarydelta/internal/chaos"
	"tributarydelta/internal/wire"
)

// TestScheduleValidateRejects walks Validate's rejections one by one: each
// case breaks exactly one rule against a four-shard fleet, and New must
// refuse the same schedule. The valid cases pin that the table does not
// pass by rejecting everything.
func TestScheduleValidateRejects(t *testing.T) {
	const shards = 4
	cases := []struct {
		name   string
		sched  chaos.Schedule
		shards int
	}{
		{"no shards", chaos.Schedule{}, 0},
		{"negative drop", chaos.Schedule{Drop: -0.1}, shards},
		{"dup of one", chaos.Schedule{Dup: 1}, shards},
		{"reorder above one", chaos.Schedule{Reorder: 1.5}, shards},
		{"noise sums to one", chaos.Schedule{Drop: 0.4, Dup: 0.4, Reorder: 0.2}, shards},
		{"negative epoch", chaos.Schedule{Faults: []chaos.Fault{{Epoch: -1, Kind: chaos.KillShard}}}, shards},
		{"negative window", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.StallControl, Epochs: -2}}}, shards},
		{"kill outside fleet", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.KillShard, Shard: shards}}}, shards},
		{"negative stall shard", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.StallControl, Shard: -1}}}, shards},
		{"blackhole outside fleet", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.BlackholeShard, Shard: 9}}}, shards},
		{"empty partition", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.Partition}}}, shards},
		{"partition outside fleet", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.Partition, Shards: []int{0, shards}}}}, shards},
		{"unknown kind", chaos.Schedule{Faults: []chaos.Fault{{Kind: "flood"}}}, shards},
		{"one bad fault among good", chaos.Schedule{Faults: []chaos.Fault{
			{Epoch: 1, Kind: chaos.KillShard, Shard: 0},
			{Epoch: 2, Kind: chaos.BlackholeShard, Shard: shards},
		}}, shards},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.sched.Validate(c.shards); err == nil {
				t.Fatalf("Validate(%d) accepted %+v", c.shards, c.sched)
			}
			if d, err := chaos.New(c.sched, c.shards); err == nil {
				d.Close()
				t.Fatalf("New(%d) accepted %+v", c.shards, c.sched)
			}
		})
	}

	valid := []chaos.Schedule{
		{},
		{Seed: 3, Drop: 0.3, Dup: 0.3, Reorder: 0.3, Faults: []chaos.Fault{
			{Epoch: 0, Kind: chaos.KillShard, Shard: shards - 1},
			{Epoch: 4, Kind: chaos.StallControl, Shard: 0, Epochs: 2},
			{Epoch: 2, Kind: chaos.BlackholeShard, Shard: 1},
			{Epoch: 3, Kind: chaos.Partition, Shards: []int{0, 2}},
		}},
	}
	for _, s := range valid {
		if err := s.Validate(shards); err != nil {
			t.Fatalf("Validate rejected valid schedule %+v: %v", s, err)
		}
	}
}

// TestNoiseProxyAccounting sends N one-frame batch datagrams through the
// data-plane proxy that AddrRewrite interposes and counts what reaches the
// real receiver: every datagram arrives once, except the dropped ones
// (gone) and the duplicated ones (twice), and a reordered datagram is held,
// never lost. So arrivals = N − Dropped + Dupped exactly.
func TestNoiseProxyAccounting(t *testing.T) {
	const n = 300
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	_ = rx.SetReadBuffer(1 << 20)

	drv, err := chaos.New(chaos.Schedule{Seed: 42, Drop: 0.1, Dup: 0.1, Reorder: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer drv.Close()
	front := drv.AddrRewrite(0, rx.LocalAddr().String())
	if front == rx.LocalAddr().String() {
		t.Fatal("AddrRewrite left the link clean: no proxy interposed")
	}
	dst, err := net.ResolveUDPAddr("udp", front)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	frame := wire.AppendEnvelope(nil, &wire.Envelope{Kind: wire.KindTree, From: 1, Contrib: 1})
	for seq := 0; seq < n; seq++ {
		dgram := wire.AppendBatchFrame(wire.AppendDatagramBatch(nil, 1, seq), 0, frame)
		if _, err := tx.Write(dgram); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		if seq%16 == 15 {
			// Pace the burst so neither loopback socket buffer overflows:
			// a kernel drop would be a loss the proxy never counted.
			time.Sleep(time.Millisecond)
		}
	}

	// Count arrivals until the link has been quiet for far longer than the
	// proxy's 2ms reorder hold.
	arrivals := 0
	buf := make([]byte, 1<<16)
	for {
		_ = rx.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if _, _, err := rx.ReadFromUDP(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				break
			}
			t.Fatalf("receive: %v", err)
		}
		arrivals++
	}

	c := drv.Counters()
	if c.Dropped == 0 || c.Dupped == 0 || c.Reordered == 0 {
		t.Fatalf("noise model idle over %d datagrams: %+v", n, c)
	}
	if c.Blackholed != 0 {
		t.Fatalf("no blackhole scheduled, yet %d frames swallowed", c.Blackholed)
	}
	if want := n - int(c.Dropped) + int(c.Dupped); arrivals != want {
		t.Fatalf("%d datagrams arrived, want %d = %d sent − %d dropped + %d duplicated (%+v)",
			arrivals, want, n, c.Dropped, c.Dupped, c)
	}
}
